#include "src/trace/trace.hh"

#include <cstring>

#include "src/common/log.hh"
#include "src/common/random.hh"
#include "src/net/packet_builder.hh"

namespace pmill {

void
Trace::add(const std::uint8_t *data, std::uint32_t len)
{
    PMILL_ASSERT(len >= 1 && len <= kMaxFrameLen,
                 "frame length %u outside [1, %u]", len, kMaxFrameLen);
    Index idx{bytes_.size(), len};
    bytes_.insert(bytes_.end(), data, data + len);
    index_.push_back(idx);
    total_bytes_ += len;
}

std::uint32_t
TraceReplay::next_frame(std::uint8_t *buf, std::uint32_t cap,
                        double *gap_scale)
{
    const std::uint32_t len = trace_.len(cursor_);
    PMILL_ASSERT(len <= cap, "frame of %u bytes exceeds the %u-byte buffer",
                 len, cap);
    std::memcpy(buf, trace_.data(cursor_), len);
    cursor_ = (cursor_ + 1) % trace_.size();
    if (gap_scale)
        *gap_scale = 1.0;
    return len;
}

namespace {

/** Draw a frame size from the campus mixture (mean ≈ 981 B). */
std::uint32_t
campus_frame_len(Xorshift64 &rng)
{
    const double u = rng.next_double();
    if (u < 0.29) {
        // Small: TCP ACKs and control traffic, 64..128 B.
        return 64 + static_cast<std::uint32_t>(rng.next_below(65));
    }
    if (u < 0.37) {
        // Medium: 300..900 B.
        return 300 + static_cast<std::uint32_t>(rng.next_below(601));
    }
    // Large: near-MTU bulk transfer, 1350..1514 B.
    return 1350 + static_cast<std::uint32_t>(rng.next_below(165));
}

FiveTuple
flow_tuple(std::uint32_t flow_id, std::uint8_t proto)
{
    FiveTuple t{};
    // Sources in 10.0.0.0/8, destinations spread over four /8 "sites"
    // the router configuration has rules for.
    t.src_ip = Ipv4Addr{static_cast<std::uint32_t>(
        0x0A000000u + (mix64(flow_id) & 0x00FFFFFFu))};
    // Destinations concentrate on a handful of egress prefixes (a
    // handful of upstream networks), as campus traffic does: the hot
    // part of the route table stays small.
    const std::uint32_t site = flow_id & 3;
    t.dst_ip = Ipv4Addr{static_cast<std::uint32_t>(
        ((20u + site) << 24) +
        static_cast<std::uint32_t>(mix64(flow_id * 7 + 1) & 0x0FFFu))};
    t.src_port = static_cast<std::uint16_t>(1024 + (flow_id % 60000));
    t.dst_port = static_cast<std::uint16_t>((flow_id % 7) == 0 ? 443 : 80);
    t.proto = proto;
    return t;
}

} // namespace

Trace
make_campus_trace(const CampusTraceConfig &cfg)
{
    Trace trace;
    Xorshift64 rng(cfg.seed);
    for (std::size_t i = 0; i < cfg.num_packets; ++i) {
        const double u = rng.next_double();
        if (u < cfg.frac_arp) {
            auto frame = build_arp_frame(
                MacAddr::make(2, 0, 0, 0, 0, 1),
                Ipv4Addr::make(10, 0, 0, 1),
                Ipv4Addr{0x0A000000u +
                         static_cast<std::uint32_t>(rng.next_below(256))});
            trace.add(frame);
            continue;
        }
        std::uint8_t proto = kIpProtoTcp;
        if (u < cfg.frac_arp + cfg.frac_icmp)
            proto = kIpProtoIcmp;
        else if (u < cfg.frac_arp + cfg.frac_icmp + cfg.frac_udp)
            proto = kIpProtoUdp;

        FrameSpec spec;
        // Zipf-ish flow popularity: half the packets come from a
        // small "heavy hitter" subset of flows.
        std::uint32_t flow_id;
        if (rng.next_double() < 0.5) {
            flow_id = static_cast<std::uint32_t>(
                rng.next_below(std::max(1u, cfg.num_flows / 16)));
        } else {
            flow_id = static_cast<std::uint32_t>(
                rng.next_below(std::max(1u, cfg.num_flows)));
        }
        spec.flow = flow_tuple(flow_id, proto);
        spec.frame_len = campus_frame_len(rng);
        spec.ttl = 64;
        trace.add(build_frame(spec));
    }
    return trace;
}

Trace
make_fixed_size_trace(std::uint32_t frame_len, std::size_t num_packets,
                      std::uint32_t num_flows, std::uint64_t seed)
{
    Trace trace;
    Xorshift64 rng(seed);
    for (std::size_t i = 0; i < num_packets; ++i) {
        FrameSpec spec;
        const std::uint32_t flow_id =
            static_cast<std::uint32_t>(i % std::max(1u, num_flows));
        spec.flow = flow_tuple(flow_id, kIpProtoUdp);
        spec.frame_len = frame_len;
        trace.add(build_frame(spec));
    }
    (void)rng;
    return trace;
}

} // namespace pmill
