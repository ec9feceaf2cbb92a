/**
 * @file
 * Simulated 100-Gbps NIC (modeled after a Mellanox ConnectX-5 used
 * with a DPDK poll-mode driver).
 *
 * The device owns, per RX/TX queue:
 *  - an RX descriptor ring of driver-posted free data buffers,
 *  - a completion queue whose 64-B CQEs the NIC writes via DDIO,
 *  - a TX descriptor ring drained at wire speed.
 *
 * Frame DMA and CQE writes go through the cache hierarchy as device
 * writes (allocating into the LLC's DDIO ways only), so the paper's
 * locality arguments about metadata and buffer working sets are
 * physically represented. PCIe is modeled as direction pipes with a
 * per-packet overhead (one RX pipe per queue, one TX pipe shared by
 * all queues), which is what caps large-packet pps in Fig. 6.
 */

#ifndef PMILL_NIC_NIC_DEVICE_HH
#define PMILL_NIC_NIC_DEVICE_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/ring.hh"
#include "src/common/types.hh"
#include "src/mem/cache.hh"
#include "src/mem/payload_park.hh"
#include "src/mem/sim_memory.hh"
#include "src/net/flow.hh"

namespace pmill {

class MetricsRegistry;
class Tracer;

/** Wire-level framing overhead: preamble(8) + IFG(12) + FCS(4). */
inline constexpr std::uint32_t kWireOverheadBytes = 24;

/** Completion-queue entry (accounted as one 64-B line, like mlx5). */
struct Cqe {
    Addr buf_addr = 0;          ///< data buffer the frame was DMAed to
    std::uint8_t *buf_host = nullptr;
    std::uint32_t len = 0;      ///< frame length (no FCS)
    std::uint32_t rss_hash = 0;
    std::uint16_t vlan_tci = 0;
    std::uint16_t flags = 0;    ///< bit0: L3 is IPv4
    TimeNs arrival_ns = 0;      ///< wire arrival completion time
    Addr cqe_addr = 0;          ///< sim address of this CQE slot (for
                                ///< the PMD's own load accounting)
    /// @name Parking model (queue has a park dock bound): the buffer
    /// holds only the first len - park_len header bytes; the payload
    /// sits in the park arena under park_ticket. 0/0 otherwise.
    /// @{
    std::uint32_t park_ticket = 0;
    std::uint32_t park_len = 0;
    /// @}
};

/** Accounted size of one CQE (one cache line). */
inline constexpr std::uint32_t kCqeBytes = 64;

/** A free buffer posted by the driver for reception. */
struct RxDescriptor {
    Addr buf_addr = 0;
    std::uint8_t *buf_host = nullptr;
};

/** A to-be-transmitted frame posted by the driver. */
struct TxDescriptor {
    Addr buf_addr = 0;
    std::uint8_t *buf_host = nullptr;
    std::uint32_t len = 0;
    TimeNs arrival_ns = 0;  ///< original wire arrival (for latency)
    TimeNs post_ns = 0;     ///< when the core posted the descriptor
    /// Parking model: TX gathers len - park.len buffer bytes plus
    /// park.len payload bytes from park.addr. park.host is the
    /// payload's host backing — the buffer holds only the header, so
    /// frame-byte consumers gather through it.
    ParkRef park;
};

/** Completion of a transmitted frame (buffer ownership returns). */
struct TxCompletion {
    Addr buf_addr = 0;
    std::uint8_t *buf_host = nullptr;
    std::uint32_t len = 0;
    TimeNs arrival_ns = 0;
    TimeNs departure_ns = 0;  ///< wire serialization end
    std::uint32_t queue = 0;  ///< TX queue the frame was posted on
    /// Sim address of the drained TX descriptor slot. Lets a caller
    /// that drained with deferred DMA replay the device's descriptor
    /// and frame reads on the owning core's hierarchy later (epoch
    /// scheduler: the reads move to the core's worker thread).
    Addr desc_addr = 0;
    /// Parking model: the gather this completion's DMA performed (or,
    /// deferred, the one the caller must replay) — len - park.len
    /// buffer bytes as DevRead plus park.len bytes from park.addr as
    /// ParkRead. park.ticket lets the datapath release the slot;
    /// park.host lets TX capture assemble the full frame host-side.
    ParkRef park;
};

/** Static NIC parameters. */
struct NicConfig {
    std::uint32_t num_queues = 1;
    std::uint32_t rx_ring_size = 2048;  ///< descriptors per RX queue
    std::uint32_t tx_ring_size = 1024;
    double link_gbps = 100.0;
    /// Effective PCIe payload bandwidth per direction (bytes/s).
    double pcie_bytes_per_sec = 12.5e9;
    /// Per-packet PCIe cost: TLP headers + descriptor/doorbell DMA.
    std::uint32_t pcie_pkt_overhead_bytes = 30;
};

/** Drop/packet counters per device. */
struct NicStats {
    std::uint64_t rx_frames = 0;
    std::uint64_t rx_bytes = 0;
    std::uint64_t rx_drops_no_desc = 0;  ///< RX ring underrun (imissed)
    std::uint64_t rx_drops_pcie = 0;     ///< PCIe backlog overflow
    std::uint64_t tx_frames = 0;
    std::uint64_t tx_bytes = 0;
};

/**
 * The simulated device. The engine calls deliver() for wire arrivals
 * and drain_tx() to collect transmitted frames; the PMDs call
 * rx_poll()/replenish()/post_tx().
 */
class NicDevice {
  public:
    /**
     * @param mem Simulated memory the descriptor/completion rings are
     *        placed in (device-ring region).
     */
    NicDevice(const NicConfig &cfg, CacheHierarchy &caches, SimMemory &mem);

    /**
     * Route queue @p queue 's DMA traffic into @p caches — used in
     * multicore runs, where each core has its own hierarchy with a
     * private full-size LLC (DESIGN.md names this approximation).
     */
    void bind_queue_cache(std::uint32_t queue, CacheHierarchy *caches);

    /**
     * Install a park dock on @p queue (Parking model): deliver()
     * writes only the first @p split_bytes of each longer frame into
     * the posted buffer and parks the remainder in @p park
     * (DRAM-direct, AccessType::kParkWrite); the TX gather reads it
     * back (kParkRead, replayed from the completion). nullptr unbinds.
     */
    void bind_queue_park(std::uint32_t queue, PayloadPark *park,
                         std::uint32_t split_bytes);

    const NicConfig &config() const { return cfg_; }
    /**
     * Aggregate device counters. RX counters accumulate in a per-queue
     * shard (so concurrent worker threads never touch a shared cell);
     * this sums the shards on every call, hence by value.
     */
    NicStats stats() const;
    void stats_reset();

    /**
     * Shard-summed counters, recomputed only when a counter has
     * changed since the last call (a relaxed dirty flag set at every
     * mutation site). The metric closures read this so one sampler
     * observation sums the per-queue shards once, not once per
     * column. Valid only at serial points (epoch edges / the serial
     * loop), which is when sampling happens.
     */
    const NicStats &stats_snapshot() const;

    /**
     * Register this device's telemetry under @p prefix: frame/drop
     * counters probed from NicStats plus an RX-ring occupancy gauge
     * (fraction of descriptors not sitting free, averaged over
     * queues).
     */
    void register_metrics(MetricsRegistry &reg,
                          const std::string &prefix) const;

    /** RX-ring occupancy in [0,1], averaged over all queues. */
    double rx_ring_occupancy() const;

    /**
     * Attach @p t (nullptr detaches); device-level drops are recorded
     * under span @p span with the reason in arg.
     */
    void
    set_tracer(Tracer *t, std::uint16_t span)
    {
        tracer_ = t;
        trace_span_ = span;
    }

    /** Wire time (ns) to serialize a frame of @p len bytes. */
    double
    wire_time_ns(std::uint32_t len) const
    {
        return static_cast<double>((len + kWireOverheadBytes) * 8) /
               cfg_.link_gbps;
    }

    /**
     * A frame finished arriving on the wire at @p now; the caller has
     * RSS-routed it to @p queue (rss_queue()). The NIC DMAs it over the
     * queue's own RX PCIe pipe into a posted buffer and writes a CQE,
     * both as device writes through the queue-bound cache hierarchy.
     * All mutable state touched (ring, PCIe pipe, stat shard) is
     * private to the queue, so concurrent calls for different queues
     * are race-free.
     * @return false when dropped (no descriptor or PCIe backlog).
     */
    bool deliver(std::uint32_t queue, const std::uint8_t *frame,
                 std::uint32_t len, TimeNs now);

    /**
     * Driver-side: pop up to @p max completed CQEs (arrival time
     * <= @p now) from @p queue into @p out. Device-side bookkeeping
     * only; the PMD separately accounts its own CQE loads.
     */
    std::uint32_t rx_poll(std::uint32_t queue, TimeNs now, Cqe *out,
                          std::uint32_t max);

    /** Peek the arrival time of the next pending CQE (or +inf). */
    TimeNs next_cqe_time(std::uint32_t queue) const;

    /** Driver-side: post a free buffer to @p queue 's RX ring. */
    bool replenish(std::uint32_t queue, const RxDescriptor &desc);

    /** Free descriptor count of @p queue (for tests/diagnostics). */
    std::size_t rx_free_descs(std::uint32_t queue) const;

    /** Driver-side: enqueue a frame for transmission. */
    bool post_tx(std::uint32_t queue, const TxDescriptor &desc);

    /**
     * Engine-side: serialize pending TX frames onto the wire up to
     * time @p now. The queue heads share one PCIe TX pipe and one
     * wire and are served in global post order: each step takes the
     * head with the smallest post_ns (ties to the lower queue) and the
     * drain stops at the first such head that cannot depart by @p now.
     * The departures therefore do not depend on how often the caller
     * drains. Completions (with departure timestamps) are appended to
     * @p out; buffer ownership returns to the caller. The drain
     * touches no simulated memory: the caller replays the device's
     * descriptor and frame reads from the completion's
     * desc_addr/buf_addr/park.addr on the owning core's hierarchy,
     * keeping every cache access core-local.
     */
    void drain_tx(TimeNs now, std::vector<TxCompletion> &out);

    /**
     * Handoff delivery: place an already-received frame (copied from
     * another core by the software steering fabric) into @p queue,
     * bypassing the wire and the PCIe RX pipe — the frame already
     * crossed both at its original arrival. Still consumes a posted
     * RX descriptor and performs the frame + CQE device writes on the
     * queue-bound hierarchy. The CQE carries @p orig_arrival_ns so
     * end-to-end latency keeps charging from the wire arrival, i.e.
     * the handoff queueing delay stays visible in p99.
     * @return false when the queue has no free descriptor or its
     *         completion ring is full (the caller counts the drop).
     */
    bool deliver_handoff(std::uint32_t queue, const std::uint8_t *frame,
                         std::uint32_t len, TimeNs orig_arrival_ns);

    /** RSS queue selected for @p frame: a pure RETA lookup. The
     * bucket (RSS hash masked to the table) is stored in @p bucket
     * when given; a single-queue NIC returns 0 without hashing and
     * leaves @p bucket unset. */
    std::uint32_t rss_queue(const std::uint8_t *frame, std::uint32_t len,
                            std::uint32_t *bucket = nullptr) const;

    /// @name RSS indirection table (kRssTableSize buckets).
    /// @{
    std::uint32_t
    rss_table_entry(std::uint32_t idx) const
    {
        PMILL_ASSERT(idx < kRssTableSize, "bad RSS table index");
        return rss_table_[idx];
    }

    /** Reprogram one bucket (control plane; flows hashing to @p idx
     * migrate to @p queue on their next arrival). */
    void
    set_rss_table_entry(std::uint32_t idx, std::uint32_t queue)
    {
        PMILL_ASSERT(idx < kRssTableSize, "bad RSS table index");
        PMILL_ASSERT(queue < cfg_.num_queues, "bad RSS table queue");
        rss_table_[idx] = queue;
    }
    /// @}

    /** Sim address of CQE slot @p slot of @p queue. */
    Addr
    cq_ring_addr(std::uint32_t queue, std::size_t slot) const
    {
        return queues_[queue].cq_mem.addr + slot * kCqeBytes;
    }

    /** Sim address of RX descriptor slot @p slot of @p queue. */
    Addr
    rx_desc_addr(std::uint32_t queue, std::size_t slot) const
    {
        return queues_[queue].rxd_mem.addr + slot * kDescBytes;
    }

    /** Slot the next replenish() of @p queue will occupy. */
    std::size_t
    rx_next_replenish_slot(std::uint32_t queue) const
    {
        return queues_[queue].rx_free.next_push_slot();
    }

    /** Sim address of TX descriptor slot @p slot of @p queue. */
    Addr
    tx_desc_addr(std::uint32_t queue, std::size_t slot) const
    {
        return queues_[queue].txd_mem.addr + slot * kDescBytes;
    }

    /** Slot the next post_tx() of @p queue will occupy. */
    std::size_t
    tx_next_post_slot(std::uint32_t queue) const
    {
        return queues_[queue].tx_pending.next_push_slot();
    }

    /** Accounted size of one RX/TX hardware descriptor. */
    static constexpr std::uint32_t kDescBytes = 16;

  private:
    struct Queue {
        Ring<RxDescriptor> rx_free;
        Ring<Cqe> completions;
        Ring<TxDescriptor> tx_pending;
        MemHandle cq_mem;   ///< CQE ring range (ring_size x 64 B)
        MemHandle rxd_mem;  ///< RX descriptor ring range
        MemHandle txd_mem;  ///< TX descriptor ring range
        /// Next instant this queue's RX PCIe pipe frees.
        TimeNs pcie_rx_free = 0;
        /// RX counters accumulated by deliver() (summed into stats()
        /// on read). Writable from the queue's worker thread.
        NicStats rx_stats;
        /// Per-queue lower bound on this queue's next TX completion
        /// time (see drain_tx). The device-level early-out is the min
        /// over queues, and it is exact: the oldest head departs no
        /// earlier than its own bound, and later passes only advance
        /// the pipes. Reset to 0 when a post lands on a previously
        /// empty queue (a fresh head may beat the cached bound); the
        /// reset touches only this queue's cell, so concurrent posts
        /// on different queues stay race-free.
        TimeNs tx_bound = 0;
        Queue(std::uint32_t rx_size, std::uint32_t tx_size)
            : rx_free(rx_size), completions(rx_size), tx_pending(tx_size)
        {}
    };

    /**
     * Departure time of TX @p head if it were served next, given the
     * current pipe state; @p dma_done receives when its PCIe read ends.
     */
    TimeNs departure_of(const TxDescriptor &head, TimeNs &dma_done) const;

    NicConfig cfg_;
    std::vector<CacheHierarchy *> queue_caches_;
    /// Per-queue park docks (Parking model; null = no parking).
    std::vector<PayloadPark *> queue_parks_;
    std::vector<std::uint32_t> park_splits_;
    std::vector<Queue> queues_;
    std::uint64_t tx_frames_ = 0;
    std::uint64_t tx_bytes_ = 0;
    /// RSS indirection table. Touched only at serial points (RSS
    /// routing is conductor-side in the epoch scheduler).
    std::array<std::uint32_t, kRssTableSize> rss_table_{};
    /// Shard-summed stats() cache behind a relaxed dirty flag (shards
    /// mutate on worker threads; the flag is atomic so those stores
    /// are race-free, and recomputation happens at serial points).
    mutable NicStats snap_;
    mutable std::atomic<bool> snap_dirty_{true};
    Tracer *tracer_ = nullptr;
    std::uint16_t trace_span_ = 0;
    TimeNs pcie_tx_free_ = 0;  ///< next instant the TX PCIe pipe frees
    TimeNs wire_tx_free_ = 0;  ///< next instant the TX wire frees
};

} // namespace pmill

#endif // PMILL_NIC_NIC_DEVICE_HH
