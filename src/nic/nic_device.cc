#include "src/nic/nic_device.hh"

#include <algorithm>
#include <cstring>
#include <limits>

#include "src/common/log.hh"
#include "src/mem/payload_park.hh"
#include "src/net/packet_builder.hh"
#include "src/telemetry/metrics.hh"
#include "src/tracing/tracer.hh"

namespace pmill {

NicDevice::NicDevice(const NicConfig &cfg, CacheHierarchy &caches,
                     SimMemory &mem)
    : cfg_(cfg)
{
    PMILL_ASSERT(cfg.num_queues >= 1, "NIC needs at least one queue");
    // Round-robin initial spread: every queue owns the same number of
    // buckets (+-1), with no low-queue modulo bias.
    for (std::uint32_t i = 0; i < kRssTableSize; ++i)
        rss_table_[i] = i % cfg.num_queues;
    queue_caches_.assign(cfg.num_queues, &caches);
    queue_parks_.assign(cfg.num_queues, nullptr);
    park_splits_.assign(cfg.num_queues, 0);
    queues_.reserve(cfg.num_queues);
    for (std::uint32_t q = 0; q < cfg.num_queues; ++q) {
        queues_.emplace_back(cfg.rx_ring_size, cfg.tx_ring_size);
        Queue &qu = queues_.back();
        qu.cq_mem = mem.reserve(std::uint64_t(cfg.rx_ring_size) * kCqeBytes,
                                kCacheLineBytes, Region::kDeviceRing);
        qu.rxd_mem =
            mem.reserve(std::uint64_t(cfg.rx_ring_size) * kDescBytes,
                        kCacheLineBytes, Region::kDeviceRing);
        qu.txd_mem =
            mem.reserve(std::uint64_t(cfg.tx_ring_size) * kDescBytes,
                        kCacheLineBytes, Region::kDeviceRing);
    }
}

void
NicDevice::bind_queue_cache(std::uint32_t queue, CacheHierarchy *caches)
{
    PMILL_ASSERT(queue < queue_caches_.size(), "bad queue");
    queue_caches_[queue] = caches;
}

void
NicDevice::bind_queue_park(std::uint32_t queue, PayloadPark *park,
                           std::uint32_t split_bytes)
{
    PMILL_ASSERT(queue < queue_parks_.size(), "bad queue");
    PMILL_ASSERT(park == nullptr || split_bytes > 0,
                 "park dock needs a nonzero split point");
    queue_parks_[queue] = park;
    park_splits_[queue] = park == nullptr ? 0 : split_bytes;
}

std::uint32_t
NicDevice::rss_queue(const std::uint8_t *frame, std::uint32_t len,
                     std::uint32_t *bucket) const
{
    // One queue takes every frame: single-core runs never hash.
    if (cfg_.num_queues == 1)
        return 0;
    const std::uint32_t idx =
        rss_hash(extract_tuple(frame, len)) & (kRssTableSize - 1);
    if (bucket)
        *bucket = idx;
    return rss_table_[idx];
}

bool
NicDevice::deliver(std::uint32_t qi, const std::uint8_t *frame,
                   std::uint32_t len, TimeNs now)
{
    PMILL_ASSERT(qi < queues_.size(), "bad queue");
    Queue &q = queues_[qi];
    NicStats &st = q.rx_stats;
    // Every path below bumps some counter; invalidate the summed
    // snapshot (relaxed: recomputation happens at serial points only).
    snap_dirty_.store(true, std::memory_order_relaxed);

    if (q.rx_free.empty()) {
        ++st.rx_drops_no_desc;
        PMILL_TRACE(tracer_, TraceEventKind::kDrop, now, 0, 0, trace_span_,
                    kDropNoRxDesc);
        return false;
    }
    if (q.completions.full()) {
        ++st.rx_drops_pcie;
        PMILL_TRACE(tracer_, TraceEventKind::kDrop, now, 0, 0, trace_span_,
                    kDropPcie);
        return false;
    }

    CacheHierarchy &qcache = *queue_caches_[qi];
    // The NIC fetches the posted descriptor over PCIe.
    qcache.access(rx_desc_addr(qi, q.rx_free.next_pop_slot()), kDescBytes,
                  AccessType::kDevRead);
    RxDescriptor desc;
    q.rx_free.pop(desc);

    // PCIe DMA of the frame (the queue's RX pipe serializes).
    const double pcie_ns =
        static_cast<double>(len + cfg_.pcie_pkt_overhead_bytes) /
        cfg_.pcie_bytes_per_sec * 1e9;
    const TimeNs dma_done = std::max(now, q.pcie_rx_free) + pcie_ns;
    q.pcie_rx_free = dma_done;

    // Device writes: frame data into the posted buffer, then the CQE.
    // Both land in the LLC DDIO ways — except when a park dock is
    // bound: then only the header prefix is DMA'd into the buffer
    // (DDIO) and the payload is parked DRAM-direct, so large-packet
    // payloads never occupy LLC ways. The PCIe charge above already
    // covered the full frame either way.
    PayloadPark *park = queue_parks_[qi];
    std::uint32_t hdr_len = len;
    Cqe cqe;
    if (park != nullptr && len > park_splits_[qi]) {
        hdr_len = park_splits_[qi];
        cqe.park_len = len - hdr_len;
        cqe.park_ticket = park->park(frame + hdr_len, cqe.park_len);
        qcache.access(park->slot_addr(cqe.park_ticket), cqe.park_len,
                      AccessType::kParkWrite);
    }
    std::memcpy(desc.buf_host, frame, hdr_len);
    qcache.access(desc.buf_addr, hdr_len, AccessType::kDevWrite);

    cqe.buf_addr = desc.buf_addr;
    cqe.buf_host = desc.buf_host;
    cqe.len = len;
    cqe.arrival_ns = dma_done;
    // Parse from the wire frame (read-only): identical bytes to the
    // buffer on the non-parked path, and the only complete view on
    // the parked one.
    FrameView view =
        parse_frame(const_cast<std::uint8_t *>(frame), len);
    if (view.ip) {
        cqe.flags |= 1;
        FiveTuple t = extract_tuple(frame, len);
        cqe.rss_hash = rss_hash(t);
    }
    if (view.vlan)
        cqe.vlan_tci = view.vlan->tci();

    // The CQE line cycles through the CQ ring region.
    cqe.cqe_addr = cq_ring_addr(qi, q.completions.next_push_slot());
    qcache.access(cqe.cqe_addr, kCqeBytes, AccessType::kDevWrite);
    const bool pushed = q.completions.push(cqe);
    PMILL_ASSERT(pushed, "completion ring overflow despite check");

    ++st.rx_frames;
    st.rx_bytes += len;
    return true;
}

NicStats
NicDevice::stats() const
{
    NicStats s;
    s.tx_frames = tx_frames_;
    s.tx_bytes = tx_bytes_;
    for (const Queue &q : queues_) {
        s.rx_frames += q.rx_stats.rx_frames;
        s.rx_bytes += q.rx_stats.rx_bytes;
        s.rx_drops_no_desc += q.rx_stats.rx_drops_no_desc;
        s.rx_drops_pcie += q.rx_stats.rx_drops_pcie;
    }
    return s;
}

const NicStats &
NicDevice::stats_snapshot() const
{
    if (snap_dirty_.load(std::memory_order_relaxed)) {
        snap_ = stats();
        snap_dirty_.store(false, std::memory_order_relaxed);
    }
    return snap_;
}

void
NicDevice::stats_reset()
{
    tx_frames_ = tx_bytes_ = 0;
    for (Queue &q : queues_)
        q.rx_stats = NicStats{};
    snap_dirty_.store(true, std::memory_order_relaxed);
}

std::uint32_t
NicDevice::rx_poll(std::uint32_t queue, TimeNs now, Cqe *out,
                   std::uint32_t max)
{
    Queue &q = queues_[queue];
    std::uint32_t n = 0;
    while (n < max && !q.completions.empty() &&
           q.completions.front().arrival_ns <= now) {
        q.completions.pop(out[n]);
        ++n;
    }
    return n;
}

TimeNs
NicDevice::next_cqe_time(std::uint32_t queue) const
{
    const Queue &q = queues_[queue];
    if (q.completions.empty())
        return std::numeric_limits<double>::infinity();
    return q.completions.front().arrival_ns;
}

bool
NicDevice::replenish(std::uint32_t queue, const RxDescriptor &desc)
{
    return queues_[queue].rx_free.push(desc);
}

std::size_t
NicDevice::rx_free_descs(std::uint32_t queue) const
{
    return queues_[queue].rx_free.size();
}

double
NicDevice::rx_ring_occupancy() const
{
    double sum = 0;
    for (const Queue &q : queues_)
        sum += 1.0 - static_cast<double>(q.rx_free.size()) /
                         static_cast<double>(cfg_.rx_ring_size);
    return queues_.empty() ? 0.0 : sum / static_cast<double>(queues_.size());
}

void
NicDevice::register_metrics(MetricsRegistry &reg,
                            const std::string &prefix) const
{
    // All rate counters read the shared shard-summed snapshot: one
    // observation recomputes the O(queues) sum at most once, instead
    // of once per column.
    reg.add_probe_counter(prefix + "rx_frames", [this] {
        return static_cast<double>(stats_snapshot().rx_frames);
    });
    reg.add_probe_counter(prefix + "tx_frames", [this] {
        return static_cast<double>(stats_snapshot().tx_frames);
    });
    reg.add_probe_counter(prefix + "rx_drops", [this] {
        const NicStats &s = stats_snapshot();
        return static_cast<double>(s.rx_drops_no_desc + s.rx_drops_pcie);
    });
    reg.add_gauge(prefix + "rx_ring_occupancy",
                  [this] { return rx_ring_occupancy(); });
}

bool
NicDevice::deliver_handoff(std::uint32_t queue, const std::uint8_t *frame,
                           std::uint32_t len, TimeNs orig_arrival_ns)
{
    PMILL_ASSERT(queue < queues_.size(), "bad queue");
    Queue &q = queues_[queue];
    if (q.rx_free.empty() || q.completions.full())
        return false;

    CacheHierarchy &qcache = *queue_caches_[queue];
    // The copy engine still consumes a posted descriptor...
    qcache.access(rx_desc_addr(queue, q.rx_free.next_pop_slot()),
                  kDescBytes, AccessType::kDevRead);
    RxDescriptor desc;
    q.rx_free.pop(desc);

    // ...and lands the frame + CQE in the destination core's DDIO
    // ways, but skips the wire and the PCIe RX pipe: the frame
    // crossed both when it first arrived on the source queue. A park
    // dock on the destination queue re-parks the payload there (the
    // source released its own ticket when it staged the handoff).
    PayloadPark *park = queue_parks_[queue];
    std::uint32_t hdr_len = len;
    Cqe cqe;
    if (park != nullptr && len > park_splits_[queue]) {
        hdr_len = park_splits_[queue];
        cqe.park_len = len - hdr_len;
        cqe.park_ticket = park->park(frame + hdr_len, cqe.park_len);
        qcache.access(park->slot_addr(cqe.park_ticket), cqe.park_len,
                      AccessType::kParkWrite);
    }
    std::memcpy(desc.buf_host, frame, hdr_len);
    qcache.access(desc.buf_addr, hdr_len, AccessType::kDevWrite);

    cqe.buf_addr = desc.buf_addr;
    cqe.buf_host = desc.buf_host;
    cqe.len = len;
    cqe.arrival_ns = orig_arrival_ns;
    FrameView view =
        parse_frame(const_cast<std::uint8_t *>(frame), len);
    if (view.ip) {
        cqe.flags |= 1;
        FiveTuple t = extract_tuple(frame, len);
        cqe.rss_hash = rss_hash(t);
    }
    if (view.vlan)
        cqe.vlan_tci = view.vlan->tci();
    cqe.cqe_addr = cq_ring_addr(queue, q.completions.next_push_slot());
    qcache.access(cqe.cqe_addr, kCqeBytes, AccessType::kDevWrite);
    const bool pushed = q.completions.push(cqe);
    PMILL_ASSERT(pushed, "completion ring overflow despite check");
    return true;
}

bool
NicDevice::post_tx(std::uint32_t queue, const TxDescriptor &desc)
{
    Queue &q = queues_[queue];
    const bool was_empty = q.tx_pending.empty();
    const bool ok = q.tx_pending.push(desc);
    if (ok && was_empty)
        q.tx_bound = 0;
    return ok;
}

TimeNs
NicDevice::departure_of(const TxDescriptor &head, TimeNs &dma_done) const
{
    const double pcie_ns =
        static_cast<double>(head.len + cfg_.pcie_pkt_overhead_bytes) /
        cfg_.pcie_bytes_per_sec * 1e9;
    dma_done = std::max(pcie_tx_free_, head.post_ns) + pcie_ns;
    return std::max(dma_done, wire_tx_free_) + wire_time_ns(head.len);
}

void
NicDevice::drain_tx(TimeNs now, std::vector<TxCompletion> &out)
{
    // Early-out when no queue's cached completion bound has been
    // reached: the oldest head departs no earlier than its own bound,
    // so nothing could be served.
    TimeNs bound = std::numeric_limits<double>::infinity();
    for (const auto &q : queues_)
        bound = std::min(bound, q.tx_bound);
    if (now < bound)
        return;

    // Work-conserving drain: each step serves the head with the
    // smallest post_ns across queues (ties to the lower queue) and
    // stops when that head cannot finish serializing by `now`. The
    // order depends only on post times, never on how often the
    // caller drains.
    for (;;) {
        Queue *oldest = nullptr;
        for (auto &q : queues_)
            if (!q.tx_pending.empty() &&
                (oldest == nullptr ||
                 q.tx_pending.front().post_ns <
                     oldest->tx_pending.front().post_ns))
                oldest = &q;
        if (oldest == nullptr)
            break;
        Queue &q = *oldest;
        const TxDescriptor &head = q.tx_pending.front();
        TimeNs dma_done;
        const TimeNs departure = departure_of(head, dma_done);
        if (departure > now)
            break;

        // The device reads the TX descriptor, then the frame bytes;
        // only the addresses are recorded here, and the caller replays
        // both reads on the owning core's hierarchy.
        const auto qi = static_cast<std::uint32_t>(&q - queues_.data());
        const Addr desc_addr = tx_desc_addr(qi, q.tx_pending.next_pop_slot());

        TxCompletion c;
        c.buf_addr = head.buf_addr;
        c.buf_host = head.buf_host;
        c.len = head.len;
        c.arrival_ns = head.arrival_ns;
        c.departure_ns = departure;
        c.queue = qi;
        c.desc_addr = desc_addr;
        c.park = head.park;
        out.push_back(c);

        pcie_tx_free_ = dma_done;
        wire_tx_free_ = departure;
        ++tx_frames_;
        tx_bytes_ += head.len;
        snap_dirty_.store(true, std::memory_order_relaxed);

        TxDescriptor dropped;
        q.tx_pending.pop(dropped);
    }

    // Cache the earliest completion each remaining head could reach.
    // The estimates use the final pipe state of this pass; any later
    // pass only advances pcie_tx_free_/wire_tx_free_, so these are
    // lower bounds and the early-out above is exact.
    for (auto &q : queues_) {
        TimeNs dma_done;
        q.tx_bound = q.tx_pending.empty()
                         ? std::numeric_limits<double>::infinity()
                         : departure_of(q.tx_pending.front(), dma_done);
    }
}

} // namespace pmill
