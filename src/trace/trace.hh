/**
 * @file
 * Packet traces, trace replay, and the frame-source interface.
 *
 * The paper evaluates with (i) a 28-minute campus trace (799 M
 * packets, 981 B average — GDPR-restricted, so we synthesize a trace
 * matching its disclosed statistics) and (ii) fixed-size synthetic
 * traffic. A Trace stores concrete wire-format frames; a TraceReplay
 * feeds it to one NIC cyclically, like the paper replays its trace 25
 * times. The engine's generators pull every frame through the
 * FrameSource interface, which TraceReplay and WorkloadSource share.
 */

#ifndef PMILL_TRACE_TRACE_HH
#define PMILL_TRACE_TRACE_HH

#include <cstdint>
#include <vector>

#include "src/net/headers.hh"

namespace pmill {

/**
 * A per-NIC stream of wire frames, paced onto the link by the
 * engine's generator.
 */
class FrameSource {
  public:
    FrameSource() = default;
    FrameSource(const FrameSource &) = default;
    FrameSource(FrameSource &&) = default;
    FrameSource &operator=(const FrameSource &) = default;
    FrameSource &operator=(FrameSource &&) = default;
    virtual ~FrameSource() = default;

    /**
     * Write the next frame into @p buf (capacity @p cap, at least
     * kMaxFrameLen) and return its length. @p gap_scale receives the
     * factor on the inter-arrival gap that follows this frame (1.0
     * for a smooth source).
     */
    virtual std::uint32_t next_frame(std::uint8_t *buf, std::uint32_t cap,
                                     double *gap_scale) = 0;
};

/** A stored trace of raw frames. */
class Trace {
  public:
    /**
     * Append one frame (copied into the trace arena);
     * 1 <= @p len <= kMaxFrameLen.
     */
    void add(const std::uint8_t *data, std::uint32_t len);

    /** Append one frame from a vector. */
    void
    add(const std::vector<std::uint8_t> &frame)
    {
        add(frame.data(), static_cast<std::uint32_t>(frame.size()));
    }

    /** Number of frames. */
    std::size_t size() const { return index_.size(); }

    bool empty() const { return index_.empty(); }

    /** Pointer to frame @p i 's bytes. */
    const std::uint8_t *
    data(std::size_t i) const
    {
        return bytes_.data() + index_[i].offset;
    }

    /** Length of frame @p i (excluding FCS). */
    std::uint32_t len(std::size_t i) const { return index_[i].len; }

    /** Sum of all frame lengths. */
    std::uint64_t total_bytes() const { return total_bytes_; }

    /** Mean frame length; 0 for an empty trace. */
    double
    mean_len() const
    {
        return empty() ? 0.0
                       : static_cast<double>(total_bytes_) /
                             static_cast<double>(size());
    }

  private:
    struct Index {
        std::uint64_t offset;
        std::uint32_t len;
    };
    std::vector<std::uint8_t> bytes_;
    std::vector<Index> index_;
    std::uint64_t total_bytes_ = 0;
};

/** Cyclic replay of a Trace into one NIC, from its first frame. */
class TraceReplay final : public FrameSource {
  public:
    /** @p trace is not owned and must outlive the replay. */
    explicit TraceReplay(const Trace &trace) : trace_(trace) {}

    std::uint32_t next_frame(std::uint8_t *buf, std::uint32_t cap,
                             double *gap_scale) override;

  private:
    const Trace &trace_;
    std::size_t cursor_ = 0;
};

/** Parameters for the synthetic campus-trace generator. */
struct CampusTraceConfig {
    std::size_t num_packets = 8192;
    std::uint32_t num_flows = 2048;
    std::uint64_t seed = 1;
    /// Fraction of TCP / UDP / ICMP / ARP packets (remainder -> TCP).
    double frac_udp = 0.12;
    double frac_icmp = 0.02;
    double frac_arp = 0.005;
};

/**
 * Synthesize a trace whose size distribution matches the paper's
 * campus trace statistics (mean ≈ 981 B: a mix of small ACK-sized,
 * medium, and MTU-sized frames) with a realistic flow and protocol
 * mixture over routable destination prefixes.
 */
Trace make_campus_trace(const CampusTraceConfig &cfg = CampusTraceConfig{});

/**
 * Synthesize fixed-size traffic: @p num_packets frames of
 * @p frame_len bytes spread over @p num_flows flows.
 */
Trace make_fixed_size_trace(std::uint32_t frame_len,
                            std::size_t num_packets = 4096,
                            std::uint32_t num_flows = 256,
                            std::uint64_t seed = 1);

} // namespace pmill

#endif // PMILL_TRACE_TRACE_HH
