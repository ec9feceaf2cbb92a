#include "src/driver/pmd.hh"

#include "src/accounting/cycle_account.hh"
#include "src/common/log.hh"
#include "src/runtime/cost_model.hh"
#include "src/telemetry/metrics.hh"
#include "src/tracing/tracer.hh"

namespace {

/** Shared queue-level ring gauge used by both PMD flavours. */
void
register_ring_gauge(pmill::MetricsRegistry &reg, const std::string &prefix,
                    const pmill::NicDevice &nic, std::uint32_t queue)
{
    reg.add_gauge(prefix + "rx_ring_occupancy", [&nic, queue] {
        return 1.0 - static_cast<double>(nic.rx_free_descs(queue)) /
                         static_cast<double>(nic.config().rx_ring_size);
    });
}

} // namespace

namespace pmill {

namespace {

/** Fixed per-packet descriptor-path work, shared by both PMDs. */
double
sink_driver_cycles(std::uint32_t n)
{
    return CostModel{}.driver_per_packet_cycles * n;
}

} // namespace

PmdStandard::PmdStandard(NicDevice &nic, Mempool &pool, std::uint32_t queue)
    : nic_(nic), pool_(pool), queue_(queue)
{
}

std::uint32_t
PmdStandard::setup_rx(AccessSink *sink)
{
    std::uint32_t posted = 0;
    while (nic_.rx_free_descs(queue_) < nic_.config().rx_ring_size) {
        MbufRef m = pool_.alloc(sink);
        if (!m)
            break;
        RxDescriptor d{m.m->frame_addr(), m.m->frame_host()};
        if (!nic_.replenish(queue_, d)) {
            pool_.free(m, sink);
            break;
        }
        ++posted;
    }
    return posted;
}

MbufRef
PmdStandard::mbuf_of_buffer(Addr buf_addr, std::uint8_t *) const
{
    return pool_.owner_of(buf_addr);
}

std::uint32_t
PmdStandard::rx_burst(TimeNs now, MbufRef *out, std::uint32_t max,
                      AccessSink *sink)
{
    // Everything in the burst is driver-RX time except the nested
    // mempool replenish, which retags itself kAcctMempool.
    AcctScope acct_scope(sink, kAcctDriverRx);
    Cqe cqes[64];
    PMILL_ASSERT(max <= 64, "burst larger than CQE scratch");
    const std::uint32_t n = nic_.rx_poll(queue_, now, cqes, max);
    if (sink && n)
        sink->on_compute(sink_driver_cycles(n), 20.0 * n);
    if (PMILL_TRACE_ON(tracer_)) {
        tracer_->set_now(now);
        if (n)
            tracer_->record(TraceEventKind::kRxBurst, now, 0, 0,
                            trace_span_, n);
    }

    // rte_prefetch the CQEs and the first frame line of the burst —
    // mlx5 does exactly this, hiding the DDIO-resident lines.
    if (sink) {
        for (std::uint32_t i = 0; i < n; ++i) {
            sink->on_access(cqes[i].cqe_addr, kCqeBytes,
                            AccessType::kPrefetch);
            sink->on_access(cqes[i].buf_addr, kCacheLineBytes,
                            AccessType::kPrefetch);
        }
    }

    for (std::uint32_t i = 0; i < n; ++i) {
        const Cqe &cqe = cqes[i];
        // The PMD reads the completion entry...
        sink_load(sink, cqe.cqe_addr, kCqeBytes);

        // ...and converts it into the generic mbuf metadata: the
        // first-line RX fields plus the timestamp on line two.
        MbufRef m = mbuf_of_buffer(cqe.buf_addr, cqe.buf_host);
        m.m->data_off = kMbufHeadroomBytes;
        m.m->pkt_len = cqe.len;
        m.m->data_len = static_cast<std::uint16_t>(cqe.len);
        m.m->vlan_tci = cqe.vlan_tci;
        m.m->rss_hash = cqe.rss_hash;
        m.m->packet_type = cqe.flags;
        m.m->port = static_cast<std::uint16_t>(queue_);
        m.m->timestamp = cqe.arrival_ns;
        sink_store(sink, m.addr, kCacheLineBytes);       // RX fields
        sink_store(sink, m.addr + kCacheLineBytes, 16);  // timestamp line
        sink_compute(sink, 6, 14);  // mbuf conversion / flag logic

        // Replenish the descriptor ring from the pool.
        MbufRef fresh = pool_.alloc(sink);
        if (fresh) {
            sink_store(sink,
                       nic_.rx_desc_addr(
                           queue_, nic_.rx_next_replenish_slot(queue_)),
                       NicDevice::kDescBytes);
            const bool ok = nic_.replenish(
                queue_, RxDescriptor{fresh.m->frame_addr(),
                                     fresh.m->frame_host()});
            PMILL_ASSERT(ok, "RX ring overflow on replenish");
        }
        out[i] = m;
    }
    return n;
}

std::uint32_t
PmdStandard::tx_burst(MbufRef *pkts, std::uint32_t n, TimeNs now,
                      AccessSink *sink)
{
    AcctScope acct_scope(sink, kAcctDriverTx);
    if (PMILL_TRACE_ON(tracer_))
        tracer_->set_now(now);
    // Free-threshold behaviour: return completed mbufs to the pool.
    for (const MbufRef &m : to_free_)
        pool_.free(m, sink);
    to_free_.clear();

    std::uint32_t sent = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        RteMbuf *m = pkts[i].m;
        // Read the mbuf metadata to build the hardware descriptor.
        sink_load(sink, pkts[i].addr, kCacheLineBytes);
        sink_store(sink,
                   nic_.tx_desc_addr(queue_, nic_.tx_next_post_slot(queue_)),
                   NicDevice::kDescBytes);
        sink_compute(sink, 5, 12);

        TxDescriptor d;
        d.buf_addr = m->frame_addr();
        d.buf_host = m->frame_host();
        d.len = m->data_len;
        d.arrival_ns = m->timestamp;
        d.post_ns = now;
        if (!nic_.post_tx(queue_, d)) {
            // TX ring full: drop remaining packets (free immediately).
            for (std::uint32_t j = i; j < n; ++j)
                pool_.free(pkts[j], sink);
            return sent;
        }
        ++sent;
    }
    return sent;
}

void
PmdStandard::on_tx_complete(const TxCompletion &c)
{
    to_free_.push_back(pool_.owner_of(c.buf_addr));
}

void
PmdStandard::register_metrics(MetricsRegistry &reg,
                              const std::string &prefix) const
{
    register_ring_gauge(reg, prefix, nic_, queue_);
    pool_.register_metrics(reg, prefix);
}

PmdXchg::PmdXchg(NicDevice &nic, XchgAdapter &adapter, std::uint32_t queue)
    : nic_(nic), adapter_(adapter), queue_(queue)
{
}

std::uint32_t
PmdXchg::setup_rx(std::uint32_t count, AccessSink *sink)
{
    std::uint32_t posted = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
        XchgAdapter::RxSlot slot;
        if (!adapter_.next_rx_slot(slot, sink))
            break;
        // Only the buffer is posted at setup; the metadata slot is
        // not consumed (slot.pkt is ignored here by design: buffers,
        // not metadata, live in the ring).
        if (!nic_.replenish(queue_,
                            RxDescriptor{slot.spare_buf_addr,
                                         slot.spare_buf_host}))
            break;
        ++posted;
    }
    return posted;
}

std::uint32_t
PmdXchg::rx_burst(TimeNs now, void **out, std::uint32_t max,
                  AccessSink *sink)
{
    // Driver-RX scope; the adapter's conversion functions retag their
    // own stores kAcctMetadata and the spare ring kAcctMempool.
    AcctScope acct_scope(sink, kAcctDriverRx);
    Cqe cqes[64];
    PMILL_ASSERT(max <= 64, "burst larger than CQE scratch");
    const std::uint32_t n = nic_.rx_poll(queue_, now, cqes, max);
    if (sink && n)
        sink->on_compute(sink_driver_cycles(n), 20.0 * n);
    if (PMILL_TRACE_ON(tracer_)) {
        tracer_->set_now(now);
        if (n)
            tracer_->record(TraceEventKind::kRxBurst, now, 0, 0,
                            trace_span_, n);
    }

    if (sink) {
        for (std::uint32_t i = 0; i < n; ++i) {
            sink->on_access(cqes[i].cqe_addr, kCqeBytes,
                            AccessType::kPrefetch);
            sink->on_access(cqes[i].buf_addr, kCacheLineBytes,
                            AccessType::kPrefetch);
        }
    }

    for (std::uint32_t i = 0; i < n; ++i) {
        const Cqe &cqe = cqes[i];
        sink_load(sink, cqe.cqe_addr, kCqeBytes);

        XchgAdapter::RxSlot slot;
        const bool have = adapter_.next_rx_slot(slot, sink);
        PMILL_ASSERT(have, "application ran out of exchange buffers");

        // Conversion functions write metadata directly into the
        // application's representation (paper Listing 1).
        adapter_.set_buffer(slot.pkt, cqe.buf_addr, cqe.buf_host, sink);
        adapter_.set_len(slot.pkt, cqe.len, sink);
        adapter_.set_vlan_tci(slot.pkt, cqe.vlan_tci, sink);
        adapter_.set_rss_hash(slot.pkt, cqe.rss_hash, sink);
        adapter_.set_timestamp(slot.pkt, cqe.arrival_ns, sink);
        adapter_.set_packet_type(slot.pkt, cqe.flags, sink);
        if (cqe.park_len != 0)
            adapter_.set_park(slot.pkt, cqe.park_ticket, cqe.park_len,
                              sink);
        sink_compute(sink, 9, 22);  // decode + conversion-call glue

        // Exchange: the application's spare buffer replaces the one
        // just received on the descriptor ring.
        sink_store(sink,
                   nic_.rx_desc_addr(queue_,
                                     nic_.rx_next_replenish_slot(queue_)),
                   NicDevice::kDescBytes);
        const bool ok = nic_.replenish(
            queue_,
            RxDescriptor{slot.spare_buf_addr, slot.spare_buf_host});
        PMILL_ASSERT(ok, "RX ring overflow on exchange");

        out[i] = slot.pkt;
    }
    return n;
}

std::uint32_t
PmdXchg::tx_burst(void **pkts, std::uint32_t n, TimeNs now,
                  AccessSink *sink)
{
    AcctScope acct_scope(sink, kAcctDriverTx);
    if (PMILL_TRACE_ON(tracer_))
        tracer_->set_now(now);
    // Return completed buffers to the application as spares.
    for (const TxCompletion &c : to_recycle_)
        adapter_.recycle_buffer(c.buf_addr, c.buf_host, sink);
    to_recycle_.clear();

    std::uint32_t sent = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        TxDescriptor d;
        d.buf_addr = adapter_.tx_buffer_addr(pkts[i], sink);
        d.buf_host = adapter_.tx_buffer_host(pkts[i]);
        d.len = adapter_.tx_len(pkts[i], sink);
        d.arrival_ns = adapter_.tx_arrival(pkts[i]);
        d.post_ns = now;
        d.park = adapter_.tx_park(pkts[i]);
        sink_store(sink,
                   nic_.tx_desc_addr(queue_, nic_.tx_next_post_slot(queue_)),
                   NicDevice::kDescBytes);
        sink_compute(sink, 4, 10);
        if (!nic_.post_tx(queue_, d)) {
            for (std::uint32_t j = i; j < n; ++j) {
                // Driver-side drop: parked payloads must not leak.
                adapter_.release_parked(pkts[j], sink);
                adapter_.recycle_buffer(
                    adapter_.tx_buffer_addr(pkts[j], sink),
                    adapter_.tx_buffer_host(pkts[j]), sink);
            }
            return sent;
        }
        ++sent;
    }
    return sent;
}

void
PmdXchg::on_tx_complete(const TxCompletion &c)
{
    to_recycle_.push_back(c);
}

void
PmdXchg::register_metrics(MetricsRegistry &reg,
                          const std::string &prefix) const
{
    register_ring_gauge(reg, prefix, nic_, queue_);
}

} // namespace pmill
