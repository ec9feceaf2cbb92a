#include "src/runtime/engine.hh"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>

#include "src/common/log.hh"
#include "src/control/controller.hh"
#include "src/elements/elements.hh"
#include "src/net/steering.hh"

namespace pmill {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Per-(src,dst) handoff staging bound of the steering fabric.
constexpr std::uint32_t kSteerRingCapacity = 512;

ExecCounters
counters_delta(const ExecCounters &a, const ExecCounters &b)
{
    ExecCounters d;
    d.compute_cycles = a.compute_cycles - b.compute_cycles;
    d.access_cycles = a.access_cycles - b.access_cycles;
    d.wall_ns = a.wall_ns - b.wall_ns;
    d.instructions = a.instructions - b.instructions;
    d.accesses = a.accesses - b.accesses;
    return d;
}

void
mem_stats_add(MemStats &into, const MemStats &s)
{
    into.loads += s.loads;
    into.stores += s.stores;
    into.l1_load_misses += s.l1_load_misses;
    into.l2_load_misses += s.l2_load_misses;
    into.llc_load_misses += s.llc_load_misses;
    into.l1_store_misses += s.l1_store_misses;
    into.l2_store_misses += s.l2_store_misses;
    into.llc_store_misses += s.llc_store_misses;
    into.dev_writes += s.dev_writes;
    into.dev_reads += s.dev_reads;
    into.dev_reads_dram += s.dev_reads_dram;
    into.tlb_misses += s.tlb_misses;
    into.prefetches += s.prefetches;
    into.numa_remote_fills += s.numa_remote_fills;
    into.park_fills += s.park_fills;
    into.park_gathers += s.park_gathers;
}

void
exec_add(ExecCounters &into, const ExecCounters &s)
{
    into.compute_cycles += s.compute_cycles;
    into.access_cycles += s.access_cycles;
    into.wall_ns += s.wall_ns;
    into.instructions += s.instructions;
    into.accesses += s.accesses;
}

/** Bit pattern of an arrival timestamp (inflight-map key). */
std::uint64_t
arrival_key(TimeNs t)
{
    std::uint64_t k;
    static_assert(sizeof(k) == sizeof(t));
    std::memcpy(&k, &t, sizeof(k));
    return k;
}

/**
 * Sum of @p f over the pointees of @p items in order, as double: the
 * reduction behind the aggregate telemetry probes.
 */
template <class Items, class F>
double
sum_over(const Items &items, F f)
{
    double v = 0;
    for (const auto &item : items)
        v += static_cast<double>(f(*item));
    return v;
}

/** Element label for metric names: non-alphanumerics become '_'. */
std::string
metric_label(const Element &e)
{
    std::string label = e.name().empty() ? e.class_name() : e.name();
    for (char &c : label)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return label;
}

/** CacheHierarchy::NumaProbe over the allocator's placement map. */
std::uint32_t
numa_home_socket(void *ctx, Addr line_addr)
{
    return static_cast<SimMemory *>(ctx)->socket_of(line_addr);
}

/** Pause-then-yield backoff for the epoch barrier spin loops. */
inline void
barrier_relax(unsigned &spins)
{
    if (++spins >= 16) {
        spins = 0;
        std::this_thread::yield();
    } else {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#else
        std::this_thread::yield();
#endif
    }
}

} // namespace

Engine::Engine(const MachineConfig &machine, const std::string &config_text,
               const PipelineOpts &opts, Trace trace)
    : machine_(machine), opts_(opts), trace_(std::move(trace))
{
    PMILL_ASSERT(!trace_.empty(), "engine needs a nonempty trace");
    for (std::uint32_t n = 0; n < machine.num_nics; ++n)
        sources_.push_back(std::make_unique<TraceReplay>(trace_));
    init(config_text);
}

Engine::Engine(const MachineConfig &machine, const std::string &config_text,
               const PipelineOpts &opts, const WorkloadSpec &workload)
    : machine_(machine), opts_(opts)
{
    // One source per NIC; the stream index decorrelates their frame
    // sequences while keeping the whole setup a pure function of the
    // spec seed.
    for (std::uint32_t n = 0; n < machine.num_nics; ++n)
        sources_.push_back(std::make_unique<WorkloadSource>(workload, n));
    init(config_text);
}

void
Engine::init(const std::string &config_text)
{
    const MachineConfig &machine = machine_;
    const PipelineOpts &opts = opts_;
    PMILL_ASSERT(machine.num_cores >= 1 && machine.num_nics >= 1,
                 "need at least one core and one NIC");
    PMILL_ASSERT(machine.num_sockets >= 1 &&
                     machine.num_sockets <= machine.num_cores,
                 "num_sockets %u outside [1, num_cores=%u]",
                 machine.num_sockets, machine.num_cores);

    mem_ = std::make_unique<SimMemory>();

    // NUMA block mapping (contiguous: low cores on socket 0). With
    // one socket every home is 0 — the allocator default — so the
    // flat machine is byte-identical to the pre-NUMA layout.
    auto core_socket = [&machine](std::uint32_t c) {
        return static_cast<std::uint32_t>(
            static_cast<std::uint64_t>(c) * machine.num_sockets /
            machine.num_cores);
    };

    // Cores: private hierarchy (each core models its own full-size
    // LLC; nothing is shared or partitioned — see DESIGN.md), private
    // ExecContext, private pipeline instance (thread-local elements,
    // flows partitioned by RSS). Each core's pipeline state is homed
    // on its own socket.
    for (std::uint32_t c = 0; c < machine.num_cores; ++c) {
        mem_->set_home_socket(core_socket(c));
        auto core = std::make_unique<Core>();
        core->index = static_cast<std::uint8_t>(c);
        core->caches = std::make_unique<CacheHierarchy>(machine.cache);
        core->ctx = std::make_unique<ExecContext>(
            *core->caches, machine.cost, opts, machine.freq_ghz);
        std::string err;
        core->pipe = Pipeline::build(config_text, *mem_, opts, &err);
        if (!core->pipe)
            fatal("pipeline build failed: %s", err.c_str());
        for (Element *e : core->pipe->elements())
            if (std::strcmp(e->class_name(), "FlowSteer") == 0)
                core->steer_elems.push_back(static_cast<FlowSteer *>(e));
        cores_.push_back(std::move(core));
    }

    // NICs: every device fans out over one RX queue per core, so core
    // c polls queue c of every NIC (the paper's single-NIC RSS fan-out
    // and 2-NICs-on-1-core setups are the edge cases of this grid).
    // Device structures (rings, CQs) live on socket 0.
    mem_->set_home_socket(0);
    NicConfig nc = machine.nic;
    nc.num_queues = machine.num_cores;
    for (std::uint32_t n = 0; n < machine.num_nics; ++n)
        nics_.push_back(std::make_unique<NicDevice>(
            nc, *cores_[0]->caches, *mem_));

    DatapathConfig dcfg;
    dcfg.burst = opts.burst;
    dcfg.park_split_bytes = opts.park_split_bytes;

    // Datapaths (and their mempools) are per (core, NIC) and homed on
    // the polling core's socket — the "per-socket mempools" half of
    // the NUMA model; the steering fabric's rings are the other half.
    for (std::uint32_t c = 0; c < machine.num_cores; ++c) {
        Core &core = *cores_[c];
        mem_->set_home_socket(core_socket(c));
        for (std::uint32_t n = 0; n < machine.num_nics; ++n) {
            nics_[n]->bind_queue_cache(c, core.caches.get());
            BoundQueue bq;
            bq.nic = n;
            bq.queue = c;
            bq.dp = make_datapath(opts.model, *nics_[n], *mem_,
                                  core.pipe->layout(), c, dcfg);
            core.dps.push_back(std::move(bq));
        }
    }
    mem_->set_home_socket(0);

    for (auto &core : cores_) {
        core->weights.assign(core->dps.size(), 1);
        for (auto &bq : core->dps)
            bq.dp->setup();
    }

    // Remote-fill detection: with multiple sockets each hierarchy
    // learns its own socket and asks the allocator where a line lives
    // on every DRAM fill. Flat machines keep the null probe (and its
    // byte-identical legacy behavior).
    if (machine.num_sockets > 1)
        for (std::uint32_t c = 0; c < machine.num_cores; ++c)
            cores_[c]->caches->set_numa_probe(&numa_home_socket,
                                              mem_.get(), core_socket(c));

    // Flow-steering fabric, only when the config steers: a table
    // shaped and programmed like the NIC RETA, so it steers nothing
    // until reprogrammed, plus per-destination handoff rings (each
    // ring homed on its destination core's socket).
    if (!cores_[0]->steer_elems.empty()) {
        std::vector<std::uint32_t> ring_sockets(machine.num_cores);
        for (std::uint32_t c = 0; c < machine.num_cores; ++c)
            ring_sockets[c] = core_socket(c);
        steer_ = std::make_unique<SteerFabric>(
            machine.num_cores, kRssTableSize, kSteerRingCapacity, *mem_,
            &ring_sockets);
        for (std::uint32_t c = 0; c < machine.num_cores; ++c)
            for (FlowSteer *fs : cores_[c]->steer_elems)
                fs->bind(steer_.get(), c);
    }

    // Let elements with large data structures reach steady-state
    // residency before timing starts.
    for (auto &core : cores_)
        for (Element *e : core->pipe->elements())
            e->warm_caches(*core->caches);

    next_start_.assign(machine.num_nics, 0.0);

    register_telemetry();
}

void
Engine::register_telemetry()
{
    // Every aggregate probe is one in-order sum over cores, NICs, or
    // the core-major queue grid (a fixed order keeps each column
    // bit-exact); a mean divides that sum by the item count.
    auto cores = [this](auto f) {
        return [this, f] { return sum_over(cores_, f); };
    };
    auto queues = [this](auto f) {
        return [this, f] {
            double v = 0;
            for (const auto &core : cores_)
                for (const BoundQueue &bq : core->dps)
                    v += static_cast<double>(f(bq));
            return v;
        };
    };
    auto mean = [](auto sum, std::size_t n) {
        return [sum, n] { return sum() / static_cast<double>(n); };
    };
    auto cache_stat = [&](std::uint64_t MemStats::*field) {
        return cores(
            [field](const Core &c) { return c.caches->stats().*field; });
    };

    // Aggregate microarchitectural counters (perf-style, summed over
    // cores); the sampler turns them into per-interval series.
    metrics_.add_probe_counter("llc_loads", cores([](const Core &c) {
        return c.caches->stats().llc_loads();
    }));
    metrics_.add_probe_counter("llc_misses",
                               cache_stat(&MemStats::llc_load_misses));
    metrics_.add_probe_counter("instructions", cores([](const Core &c) {
        return c.ctx->counters().instructions;
    }));
    metrics_.add_probe_counter("cycles", cores([this](const Core &c) {
        return c.ctx->counters().total_cycles(machine_.freq_ghz);
    }));
    metrics_.add_ratio("ipc", "instructions", "cycles");

    // Traffic counters: slot-backed (one add per completion in the
    // engine's TX-drain hot path) plus derived rates.
    m_tx_pkts_ = metrics_.add_counter("tx_pkts");
    m_tx_wire_bits_ = metrics_.add_counter("tx_wire_bits");
    metrics_.add_rate("throughput_gbps", "tx_wire_bits", 1e-9);
    metrics_.add_rate("mpps", "tx_pkts", 1e-6);

    metrics_.add_probe_counter(
        "rx_drops", [this] { return static_cast<double>(rx_drops()); });
    metrics_.add_probe_counter("pipeline_drops", cores([](const Core &c) {
        return c.pipe->dropped();
    }));

    // Occupancy gauges aggregated across devices/queues.
    metrics_.add_gauge("ring_occupancy", [this] {
        return sum_over(nics_, [](const NicDevice &nic) {
                   return nic.rx_ring_occupancy();
               }) /
               static_cast<double>(nics_.size());
    });
    metrics_.add_gauge("mempool_occupancy",
                       mean(queues([](const BoundQueue &bq) {
                                return bq.dp->pool_occupancy();
                            }),
                            cores_.size() * nics_.size()));

    // Per-interval latency distribution (p50_/p99_latency_us columns).
    lat_interval_ = metrics_.add_histogram("latency_us", 4000.0, 16384);

    // Per-device and per-queue breakdowns.
    for (std::uint32_t n = 0; n < nics_.size(); ++n)
        nics_[n]->register_metrics(metrics_, strprintf("nic%u_", n));
    for (const auto &core : cores_)
        for (const auto &bq : core->dps)
            bq.dp->register_metrics(
                metrics_, strprintf("nic%u_q%u_", bq.nic, bq.queue));

    // Actuated knob state (mean over cores), so a controlled run's
    // timeline shows the knob trajectory next to what it caused.
    metrics_.add_gauge(
        "rx_burst",
        mean(cores([](const Core &c) { return c.ctx->opts().burst; }),
             cores_.size()));
    metrics_.add_gauge(
        "poll_backoff_ns",
        mean(cores([](const Core &c) { return c.poll_backoff_ns; }),
             cores_.size()));
    metrics_.add_probe_counter("poll_wait_cycles", cores([](const Core &c) {
        return c.poll_wait_cycles;
    }));

    const auto elems = cores_[0]->pipe->elements();

    // Cycle-accounting bucket columns (summed over cores, cumulative
    // cycles; the sampler turns them into per-interval shares). One
    // column per fixed scope, one per pipeline element, plus the
    // cross-scope stall components and the ledger total.
    if (CycleAccount::kCompiledIn) {
        auto acct = [&](const std::string &name, auto bucket) {
            metrics_.add_probe_counter(name, cores([bucket](const Core &c) {
                return CycleAccount::cycles(bucket(c.ctx->account()));
            }));
        };
        auto scope = [](std::uint16_t s) {
            return [s](const CycleAccount &a) { return a.scope_total(s); };
        };
        auto component = [](std::uint32_t comp) {
            return [comp](const CycleAccount &a) {
                return a.component_total(comp);
            };
        };
        for (std::uint16_t s = 0; s < kAcctNumFixedScopes; ++s)
            acct(strprintf("acct_%s_cycles", acct_scope_name(s)), scope(s));
        for (std::size_t ei = 0; ei < elems.size(); ++ei)
            acct(strprintf("acct_el_%s_cycles",
                           metric_label(*elems[ei]).c_str()),
                 scope(static_cast<std::uint16_t>(kAcctElementBase + ei)));
        acct("acct_llc_stall_cycles", component(kAcctLlcStall));
        acct("acct_dram_stall_cycles", component(kAcctDramStall));
        acct("acct_tlb_stall_cycles", component(kAcctTlbStall));
        acct("acct_total_cycles",
             [](const CycleAccount &a) { return a.total_fixed(); });
    }

    // Flow-table state (NAT/conntrack): one prefixed group per
    // stateful element, summed over its per-core instances.
    for (std::size_t ei = 0; ei < elems.size(); ++ei) {
        FlowTableStats probe;
        if (!elems[ei]->flow_table_stats(&probe))
            continue;
        const std::string prefix = "tbl_" + metric_label(*elems[ei]) + "_";
        auto table = [&, ei](auto field) {
            return cores([ei, field](const Core &c) {
                FlowTableStats st;
                return c.pipe->elements()[ei]->flow_table_stats(&st)
                           ? st.*field
                           : 0;
            });
        };
        metrics_.add_gauge(prefix + "occupancy",
                           table(&FlowTableStats::occupancy));
        metrics_.add_gauge(prefix + "half_open",
                           table(&FlowTableStats::half_open));
        metrics_.add_probe_counter(prefix + "inserts",
                                   table(&FlowTableStats::inserts));
        metrics_.add_probe_counter(prefix + "failed_inserts",
                                   table(&FlowTableStats::failed_inserts));
        metrics_.add_probe_counter(prefix + "displacements",
                                   table(&FlowTableStats::displacements));
        metrics_.add_probe_counter(prefix + "evictions",
                                   table(&FlowTableStats::evictions));
    }

    // Workload-generator counters (workload engines only).
    if (workload(0)) {
        auto wl = [this](const char *name, auto field) {
            metrics_.add_probe_counter(name, [this, field] {
                return sum_over(sources_, [field](const FrameSource &s) {
                    return static_cast<const WorkloadSource &>(s)
                        .stats().*field;
                });
            });
        };
        wl("wl_frames", &WorkloadStats::frames);
        wl("wl_flows_born", &WorkloadStats::flows_born);
        wl("wl_flows_died", &WorkloadStats::flows_died);
        wl("wl_syns", &WorkloadStats::syn_frames);
    }

    // Steering-fabric counters — registered only when the config has
    // a FlowSteer element, so legacy timelines keep their exact
    // column set.
    if (steer_) {
        auto steer = [this](const char *name, auto field) {
            metrics_.add_probe_counter(name, [this, field] {
                return static_cast<double>(steer_->stats().*field);
            });
        };
        steer("steer_handoffs", &SteerStats::steered);
        steer("steer_passed", &SteerStats::passed);
        steer("steer_delivered", &SteerStats::delivered);
        steer("steer_stage_drops", &SteerStats::stage_drops);
        steer("steer_ring_drops", &SteerStats::ring_drops);
    }

    // NUMA and Parking counters — gated on a multi-socket machine and
    // on the model, so every other timeline keeps its exact column set.
    if (machine_.num_sockets > 1)
        metrics_.add_probe_counter("numa_remote_fills",
                                   cache_stat(&MemStats::numa_remote_fills));
    if (opts_.model == MetadataModel::kParking) {
        metrics_.add_probe_counter("park_fills",
                                   cache_stat(&MemStats::park_fills));
        metrics_.add_probe_counter("park_gathers",
                                   cache_stat(&MemStats::park_gathers));
        auto park = [&](auto field) {
            return queues([field](const BoundQueue &bq) {
                PayloadPark::Stats st;
                return bq.dp->park_stats(&st) ? st.*field : 0;
            });
        };
        metrics_.add_probe_counter("park_parked",
                                   park(&PayloadPark::Stats::parked));
        metrics_.add_probe_counter("park_rejoined",
                                   park(&PayloadPark::Stats::rejoined));
        metrics_.add_probe_counter("park_dropped",
                                   park(&PayloadPark::Stats::dropped));
        metrics_.add_gauge("park_outstanding",
                           park(&PayloadPark::Stats::outstanding));
    }
}

Engine::~Engine() = default;

std::uint32_t
Engine::num_polled_queues(std::uint32_t core) const
{
    PMILL_ASSERT(core < cores_.size(),
                 "core index %u out of range (engine has %zu cores)", core,
                 cores_.size());
    return static_cast<std::uint32_t>(cores_[core]->dps.size());
}

std::uint32_t
Engine::rx_burst(std::uint32_t core) const
{
    PMILL_ASSERT(core < cores_.size(),
                 "core index %u out of range (engine has %zu cores)", core,
                 cores_.size());
    return cores_[core]->ctx->opts().burst;
}

void
Engine::set_rx_burst(std::uint32_t core, std::uint32_t burst)
{
    PMILL_ASSERT(core < cores_.size(),
                 "core index %u out of range (engine has %zu cores)", core,
                 cores_.size());
    PMILL_ASSERT(burst >= 1 && burst <= kMaxBurst,
                 "rx burst %u outside [1, %u]", burst, kMaxBurst);
    cores_[core]->ctx->set_burst(burst);
}

double
Engine::poll_backoff_ns(std::uint32_t core) const
{
    PMILL_ASSERT(core < cores_.size(),
                 "core index %u out of range (engine has %zu cores)", core,
                 cores_.size());
    return cores_[core]->poll_backoff_ns;
}

void
Engine::set_poll_backoff_ns(std::uint32_t core, double ns)
{
    PMILL_ASSERT(core < cores_.size(),
                 "core index %u out of range (engine has %zu cores)", core,
                 cores_.size());
    PMILL_ASSERT(ns >= 0 && ns <= 1e6, "poll backoff %g ns outside [0, 1e6]",
                 ns);
    cores_[core]->poll_backoff_ns = ns;
}

std::uint32_t
Engine::queue_weight(std::uint32_t core, std::uint32_t q) const
{
    PMILL_ASSERT(core < cores_.size(),
                 "core index %u out of range (engine has %zu cores)", core,
                 cores_.size());
    PMILL_ASSERT(q < cores_[core]->weights.size(),
                 "queue index %u out of range (core polls %zu queues)", q,
                 cores_[core]->weights.size());
    return cores_[core]->weights[q];
}

void
Engine::set_queue_weight(std::uint32_t core, std::uint32_t q,
                         std::uint32_t weight)
{
    PMILL_ASSERT(core < cores_.size(),
                 "core index %u out of range (engine has %zu cores)", core,
                 cores_.size());
    PMILL_ASSERT(q < cores_[core]->weights.size(),
                 "queue index %u out of range (core polls %zu queues)", q,
                 cores_[core]->weights.size());
    PMILL_ASSERT(weight >= 1 && weight <= 64,
                 "queue weight %u outside [1, 64]", weight);
    cores_[core]->weights[q] = weight;
}

std::uint32_t
Engine::rss_table_size() const
{
    return kRssTableSize;
}

std::uint32_t
Engine::rss_table_entry(std::uint32_t idx) const
{
    return steer_ ? steer_->entry(idx) : nics_[0]->rss_table_entry(idx);
}

void
Engine::set_rss_table_entry(std::uint32_t idx, std::uint32_t queue)
{
    PMILL_ASSERT(queue < cores_.size(),
                 "indirection target %u out of range (engine has %zu "
                 "cores)",
                 queue, cores_.size());
    if (steer_) {
        steer_->set_entry(idx, queue);
        return;
    }
    // The devices run one shared table program: every NIC's bucket idx
    // moves together, keeping queue q == core q consistent across the
    // grid.
    for (auto &nic : nics_)
        nic->set_rss_table_entry(idx, queue);
}

std::uint64_t
Engine::rss_entry_load(std::uint32_t idx) const
{
    PMILL_ASSERT(idx < kRssTableSize, "bad RSS table index");
    return steer_ ? steer_->entry_load(idx) : rss_loads_[idx];
}

void
Engine::reset_rss_entry_loads()
{
    if (steer_)
        steer_->reset_entry_loads();
    else
        rss_loads_.fill(0);
}

void
Engine::enable_tracing(const TracerConfig &cfg)
{
    tracer_ = std::make_unique<Tracer>(cfg);
    inflight_.clear();
    for (auto &core : cores_) {
        core->pipe->set_tracer(tracer_.get());
        for (auto &bq : core->dps)
            bq.dp->set_tracer(tracer_.get(),
                              strprintf("nic%u.q%u", bq.nic, bq.queue));
    }
    for (std::size_t n = 0; n < nics_.size(); ++n)
        nics_[n]->set_tracer(
            tracer_.get(),
            tracer_->intern(strprintf("nic%zu", n)));
}

void
Engine::set_profile_capture(bool on)
{
    if (on && !tracer_)
        enable_tracing();
    for (auto &core : cores_)
        core->pipe->set_rule_profiling(on);
}

TailAttribution
Engine::tail_attribution(double threshold_us) const
{
    if (!tracer_)
        return TailAttribution{};
    if (threshold_us < 0)
        threshold_us = last_p99_us_;
    return attribute_tail(*tracer_, threshold_us);
}

TimeNs
Engine::next_arrival(std::uint32_t *nic) const
{
    std::uint32_t best = 0;
    for (std::uint32_t n = 1; n < next_start_.size(); ++n)
        if (next_start_[n] < next_start_[best])
            best = n;
    *nic = best;
    return next_start_[best] < gen_stop_ ? next_start_[best] : kInf;
}

Engine::Arrival
Engine::pace(std::uint32_t nic, std::uint8_t *frame)
{
    Arrival a;
    a.nic = nic;
    a.start = next_start_[nic];
    double gap_scale = 1.0;
    a.len = sources_[nic]->next_frame(
        frame, kMaxFrameLen,
        &gap_scale);
    a.done = a.start + nics_[nic]->wire_time_ns(a.len);

    // Next frame starts after this one's share of the offered rate
    // (post-step rate once the configured load step has passed),
    // scaled by the source's burst modulation (x1.0 — exact in IEEE —
    // for a trace and whenever bursts are off).
    const double offered = (load_step_gbps_ > 0 && a.start >= load_step_at_)
                               ? load_step_gbps_
                               : offered_gbps_;
    const double wire_bits =
        static_cast<double>((a.len + kWireOverheadBytes) * 8);
    next_start_[nic] += wire_bits / offered * gap_scale;
    return a;
}

void
Engine::step_core(Core &core)
{
    ExecContext &ctx = *core.ctx;
    bool any = false;

    const bool tron = PMILL_TRACE_ON(tracer_.get());
    if (tron) {
        // Event time inside the pipeline is reconstructed as
        // base + ctx.elapsed_ns(); at step entry elapsed ==
        // last_elapsed and sim time == clock.
        tracer_->set_core(core.index);
        tracer_->set_now(core.clock);
        core.pipe->set_trace_time_base(core.clock - core.last_elapsed);
    }

    for (std::size_t k = 0; k < core.dps.size(); ++k) {
        const std::size_t slot = (core.rr_cursor + k) % core.dps.size();
        BoundQueue &bq = core.dps[slot];
        // Weighted round-robin: up to weights[slot] consecutive
        // bursts from this queue per polling round (weight 1 is the
        // classic schedule).
        const std::uint32_t w = core.weights[slot];
        for (std::uint32_t rep = 0; rep < w; ++rep) {
            PacketBatch batch;
            const std::uint32_t n = bq.dp->rx(core.clock, batch, ctx);
            if (n == 0)
                break;
            any = true;
            if (tron) {
                // Head-sample lifecycles: a sampled packet carries its
                // id through the pipeline and into the inflight map so
                // the TX completion can be joined back.
                for (std::uint32_t i = 0; i < batch.count; ++i) {
                    if (!tracer_->sample_packet())
                        continue;
                    PacketHandle &h = batch[i];
                    h.trace_id = tracer_->next_packet_id();
                    tracer_->record(TraceEventKind::kRxPacket,
                                    h.arrival_ns, h.trace_id, 0, 0, h.len);
                    inflight_[arrival_key(h.arrival_ns)] = h.trace_id;
                }
            }
            ctx.on_compute(ctx.cost().per_burst_cycles, 20);
            core.pipe->process(batch, ctx);
            // Post time includes the processing just performed.
            const TimeNs post = core.clock +
                                (ctx.elapsed_ns() - core.last_elapsed);
            bq.dp->tx(batch, post, ctx);
            // Packets FlowSteer handed off were compacted out of the
            // batch; return their handles through this datapath's
            // drop path so the mbufs go back to this core's own pools
            // (the frame bytes are already copied fabric-side).
            for (FlowSteer *fs : core.steer_elems) {
                std::vector<PacketHandle> &rel = fs->release_list();
                if (rel.empty())
                    continue;
                std::size_t i = 0;
                while (i < rel.size()) {
                    PacketBatch rb;
                    while (i < rel.size() && rb.count < kMaxBurst) {
                        rb.pkts[rb.count] = rel[i];
                        rb.pkts[rb.count].dropped = true;
                        ++rb.count;
                        ++i;
                    }
                    const TimeNs rt =
                        core.clock +
                        (ctx.elapsed_ns() - core.last_elapsed);
                    bq.dp->tx(rb, rt, ctx);
                }
                rel.clear();
            }
        }
    }
    core.rr_cursor = (core.rr_cursor + 1) %
                     static_cast<std::uint32_t>(core.dps.size());

    if (!any) {
        // Dry poll: the poll cost is idle time in the ledger.
        AcctScope idle_scope(ctx, kAcctIdle);
        ctx.on_compute(ctx.cost().poll_empty_cycles, 10);
    }

    const TimeNs elapsed = ctx.elapsed_ns();
    const TimeNs dt = elapsed - core.last_elapsed;
    core.last_elapsed = elapsed;
    PMILL_ASSERT(dt > 0, "core made no progress");
    core.clock += dt;

    if (!any) {
        if (core.poll_backoff_ns > 0) {
            sleep_backoff(core);
        } else {
            // Skip ahead to the next completion if the queues are dry
            // (busy-polling consumes no simulated events we care
            // about); account the burned cycles for the telemetry.
            const TimeNs next = next_cqe_time(core);
            if (next > core.clock && next < kInf) {
                core.poll_wait_cycles +=
                    (next - core.clock) * machine_.freq_ghz;
                ctx.account().charge_ns(kAcctIdle, kAcctCompute,
                                        next - core.clock,
                                        machine_.freq_ghz);
                core.clock = next;
            }
        }
    }
}

void
Engine::idle_spin(Core &core, TimeNs until)
{
    ExecContext &ctx = *core.ctx;
    // The whole stretch — empty polls and backoff sleeps alike — is
    // idle time in the ledger.
    AcctScope idle_scope(ctx, kAcctIdle);
    const double empty_cycles = ctx.cost().poll_empty_cycles;
    const std::uint32_t ndp =
        static_cast<std::uint32_t>(core.dps.size());
    // Each iteration is one empty step_core pass: the dry rx() calls
    // it omits touch no simulated state, and the skip-to-CQE scan is a
    // no-op while the core's queues hold no completion.
    while (core.clock < until) {
        ctx.on_compute(empty_cycles, 10);
        const TimeNs elapsed = ctx.elapsed_ns();
        const TimeNs dt = elapsed - core.last_elapsed;
        core.last_elapsed = elapsed;
        PMILL_ASSERT(dt > 0, "core made no progress");
        core.clock += dt;
        core.rr_cursor = (core.rr_cursor + 1) % ndp;
        if (core.poll_backoff_ns > 0)
            sleep_backoff(core);
    }
}

TimeNs
Engine::next_cqe_time(const Core &core) const
{
    TimeNs next = kInf;
    for (const auto &bq : core.dps)
        next = std::min(next, nics_[bq.nic]->next_cqe_time(bq.queue));
    return next;
}

void
Engine::sleep_backoff(Core &core)
{
    // Metronome-style backoff: the core parks for the sleep interval
    // instead of spinning; packets that arrive meanwhile wait in the
    // ring until the next poll. The slept time counts as idle cycles
    // like a dry busy-poll.
    core.poll_wait_cycles += core.poll_backoff_ns * machine_.freq_ghz;
    core.clock += core.poll_backoff_ns;
    // The sleep advances the clock outside the ExecContext, so it is
    // charged to the ledger directly (same ns * freq).
    core.ctx->account().charge_ns(kAcctIdle, kAcctCompute,
                                  core.poll_backoff_ns, machine_.freq_ghz);
}

void
Engine::drain_all_tx(TimeNs now, std::vector<std::vector<PendingTx>> &pending)
{
    const bool tron = PMILL_TRACE_ON(tracer_.get());
    for (std::uint32_t n = 0; n < nics_.size(); ++n) {
        tx_scratch_.clear();
        nics_[n]->drain_tx(now, tx_scratch_);
        if (tx_scratch_.empty())
            continue;
        // Per-drain counter flush: integer sums are order-independent,
        // so accumulating locally and publishing once per burst is
        // bit-identical to per-completion slot increments — it just
        // keeps the hot loop out of the telemetry slots.
        std::uint64_t pkts = 0;
        std::uint64_t wire_bits = 0;
        std::uint64_t frame_bits = 0;
        for (const TxCompletion &c : tx_scratch_) {
            // Capture before on_tx_complete: the completion releases
            // the park ticket, and the capture gather must read the
            // slot while the ticket still owns it.
            if (measuring_ && tx_capture_)
                capture_tx(c);
            pending[c.queue].push_back(PendingTx{n, c});
            if (PMILL_UNLIKELY(tron) && !inflight_.empty()) {
                auto it = inflight_.find(arrival_key(c.arrival_ns));
                if (it != inflight_.end()) {
                    tracer_->record(TraceEventKind::kTx, c.departure_ns,
                                    it->second, 0, 0, c.len);
                    inflight_.erase(it);
                }
            }
            ++pkts;
            wire_bits += (c.len + kWireOverheadBytes) * 8ull;
            lat_interval_->record((c.departure_ns - c.arrival_ns) / 1000.0);
            if (measuring_) {
                frame_bits += c.len * 8ull;
                latency_->record((c.departure_ns - c.arrival_ns) / 1000.0);
            }
        }
        m_tx_pkts_.add(pkts);
        m_tx_wire_bits_.add(wire_bits);
        if (measuring_) {
            tx_pkts_ += pkts;
            tx_wire_bits_ += wire_bits;
            tx_frame_bits_ += frame_bits;
        }
    }
}

void
Engine::capture_tx(const TxCompletion &c)
{
    if (c.park.len == 0) {
        tx_capture_(c.buf_host, c.len);
        return;
    }
    const std::uint32_t hdr = c.len - c.park.len;
    std::memcpy(cap_buf_.data(), c.buf_host, hdr);
    std::memcpy(cap_buf_.data() + hdr, c.park.host, c.park.len);
    tx_capture_(cap_buf_.data(), c.len);
}

void
Engine::flush_steering()
{
    if (!steer_ || !steer_->has_staged())
        return;
    // Deterministic merge order (dst asc, src asc, FIFO) into NIC 0's
    // queue for the destination core. deliver_handoff consumes a
    // posted RX descriptor and lands the frame + CQE with DDIO on the
    // destination's hierarchy, skipping the PCIe pipes — the frame is
    // already host-side. The CQE keeps the original wire arrival so
    // end-to-end latency includes the handoff queueing delay.
    steer_->drain([this](std::uint32_t dst, const std::uint8_t *frame,
                         std::uint32_t len, TimeNs arrival_ns) {
        return nics_[0]->deliver_handoff(dst, frame, len, arrival_ns);
    });
}

std::uint64_t
Engine::rx_drops() const
{
    std::uint64_t drops = 0;
    for (const auto &nic : nics_) {
        const NicStats s = nic->stats();
        drops += s.rx_drops_no_desc + s.rx_drops_pcie;
    }
    return drops;
}

void
Engine::begin_measuring(TimeNs warm_end)
{
    measuring_ = true;
    for (std::size_t c = 0; c < cores_.size(); ++c) {
        exec_base_[c] = cores_[c]->ctx->counters();
        mem_base_[c] = cores_[c]->caches->stats();
        acct_base_[c] = cores_[c]->ctx->account().snapshot();
        acct_clock_base_[c] = cores_[c]->clock;
    }
    drops_base_ = rx_drops();
    latency_->clear();
    tx_pkts_ = 0;
    tx_wire_bits_ = tx_frame_bits_ = 0;
    // Align telemetry with the measured window: element counters
    // restart and the sampler baselines every counter at the
    // nominal window start (sample boundaries at warm_end + k*T).
    for (auto &core : cores_)
        core->pipe->reset_element_stats();
    if (sampler_)
        sampler_->start(warm_end);
    // Restart the trace ring so it holds the measured window.
    if (tracer_) {
        tracer_->clear();
        inflight_.clear();
    }
}

RunResult
Engine::run(const RunConfig &rc)
{
    PMILL_ASSERT(rc.host_threads >= 1 && rc.host_threads <= cores_.size(),
                 "host_threads %u outside [1, %zu simulated cores]",
                 rc.host_threads, cores_.size());

    offered_gbps_ =
        std::min(rc.offered_gbps, machine_.nic.link_gbps);
    PMILL_ASSERT(offered_gbps_ > 0, "offered load must be positive");

    latency_ = std::make_unique<Histogram>(rc.latency_range_us, 262144);
    const TimeNs warm_end = rc.warmup_us * 1000.0;

    measuring_ = false;
    tx_pkts_ = 0;
    tx_wire_bits_ = tx_frame_bits_ = 0;

    load_step_at_ = warm_end + rc.load_step_us * 1000.0;
    load_step_gbps_ = rc.load_step_us > 0
                          ? std::min(rc.load_step_gbps,
                                     machine_.nic.link_gbps)
                          : 0.0;

    gen_stop_ = rc.generator_stop_us > 0
                    ? warm_end + rc.generator_stop_us * 1000.0
                    : kInf;

    sampler_ = rc.sample_interval_us > 0
                   ? std::make_unique<Sampler>(metrics_,
                                               rc.sample_interval_us)
                   : nullptr;

    // Window baselines stay zero if the window never opens.
    exec_base_.assign(cores_.size(), ExecCounters{});
    mem_base_.assign(cores_.size(), MemStats{});
    drops_base_ = 0;
    acct_base_.assign(cores_.size(), CycleAccount::Snapshot{});
    acct_clock_base_.assign(cores_.size(), 0.0);

    if (controller_)
        controller_->on_run_start(*this);

    return run_epoch(rc);
}

void
Engine::sample(TimeNs t, bool last)
{
    if (!sampler_ || !measuring_)
        return;
    // The last call emits the remaining whole intervals, then flushes
    // the trailing partial interval (marked) so no tail time vanishes.
    if (last)
        sampler_->finish(t);
    else
        sampler_->advance(t);
    if (controller_)
        controller_->observe(sampler_->timeline(), *this);
}

RunResult
Engine::finish_run(TimeNs warm_end, TimeNs end)
{
    RunResult r;
    r.duration_ns = end - warm_end;
    r.tx_pkts = tx_pkts_;
    r.throughput_gbps = static_cast<double>(tx_wire_bits_) / r.duration_ns;
    r.goodput_gbps = static_cast<double>(tx_frame_bits_) / r.duration_ns;
    r.mpps = static_cast<double>(tx_pkts_) / r.duration_ns * 1000.0;
    r.mean_latency_us = latency_->mean();
    r.median_latency_us = latency_->percentile(0.5);
    r.p99_latency_us = latency_->percentile(0.99);
    last_p99_us_ = r.p99_latency_us;

    r.rx_drops = rx_drops() - drops_base_;

    // Parking-model ticket conservation, checked after every run:
    // each queue's PayloadPark::stats() hard-asserts that the
    // lifecycle counters match the free list (leak detection), and
    // every issued ticket must be accounted as rejoined, dropped, or
    // still attached to a frame legitimately in flight at the end
    // edge (RX rings / handoff rings / TX rings).
    for (const auto &core : cores_) {
        for (const auto &bq : core->dps) {
            PayloadPark::Stats st;
            if (!bq.dp->park_stats(&st))
                continue;
            PMILL_ASSERT(st.parked ==
                             st.rejoined + st.dropped + st.outstanding,
                         "park ticket conservation violated on nic%u q%u: "
                         "parked=%llu rejoined=%llu dropped=%llu "
                         "outstanding=%u",
                         bq.nic, bq.queue,
                         static_cast<unsigned long long>(st.parked),
                         static_cast<unsigned long long>(st.rejoined),
                         static_cast<unsigned long long>(st.dropped),
                         st.outstanding);
        }
    }

    // Cycle-accounting conservation: the bucket sum must equal the
    // ledger total bit-exactly (integer construction), and the ledger
    // total must match the core-clock advance up to floating-point
    // rounding. Both checked per core, every run.
    acct_measured_.assign(cores_.size(), AcctCoreBreakdown{});
    for (std::size_t c = 0; c < cores_.size(); ++c) {
        AcctCoreBreakdown &b = acct_measured_[c];
        b.delta = cores_[c]->ctx->account().snapshot().delta_since(
            acct_base_[c]);
        b.clock_cycles =
            (cores_[c]->clock - acct_clock_base_[c]) * machine_.freq_ghz;
        b.residual = b.delta.total - CycleAccount::to_fixed(b.clock_cycles);
        if (CycleAccount::kCompiledIn) {
            PMILL_ASSERT(b.delta.sum_minus_total() == 0,
                         "cycle-accounting leak on core %zu: bucket sum "
                         "differs from total by %lld fixed-point units",
                         c,
                         static_cast<long long>(b.delta.sum_minus_total()));
            const double res_cycles = CycleAccount::cycles(b.residual);
            PMILL_ASSERT(
                std::fabs(res_cycles) <= 1.0 + 1e-5 * b.clock_cycles,
                "cycle-accounting residual %g cycles on core %zu "
                "(window %g cycles): a clock advance bypassed the ledger",
                res_cycles, c, b.clock_cycles);
        }
    }

    double instr = 0, cycles = 0;
    for (std::size_t c = 0; c < cores_.size(); ++c) {
        ExecCounters d =
            counters_delta(cores_[c]->ctx->counters(), exec_base_[c]);
        exec_add(r.exec, d);
        MemStats md = cores_[c]->caches->stats() - mem_base_[c];
        mem_stats_add(r.mem, md);
        instr += d.instructions;
        cycles += d.total_cycles(machine_.freq_ghz);
    }
    r.ipc = cycles > 0 ? instr / cycles : 0;
    const double windows_100ms = r.duration_ns / 1e8;
    r.llc_kloads_per_100ms =
        static_cast<double>(r.mem.llc_loads()) / windows_100ms / 1000.0;
    r.llc_kmisses_per_100ms =
        static_cast<double>(r.mem.llc_load_misses) / windows_100ms / 1000.0;
    return r;
}

RunResult
Engine::run_epoch(const RunConfig &rc)
{
    // The epoch scheduler targets the queue-per-core grid: on every
    // NIC queue q is bound to core q, so each queue's rings/shards/
    // cache hierarchy are private to exactly one core.
    const TimeNs warm_end = rc.warmup_us * 1000.0;
    const TimeNs end = warm_end + rc.duration_us * 1000.0;
    const std::uint32_t ncores =
        static_cast<std::uint32_t>(cores_.size());

    std::uint32_t nthreads = rc.host_threads;
    if (PMILL_TRACE_ON(tracer_.get()) && nthreads > 1) {
        warn("tracing serializes host execution: running %u simulated "
             "cores on 1 host thread (asked for %u)",
             ncores, nthreads);
        nthreads = 1;
    }

    const double epoch_ns = rc.epoch_us * 1000.0;
    PMILL_ASSERT(epoch_ns >= 1.0, "epoch_us must be at least 0.001 (1 ns)");

    // Edge grid: every instant the conductor must own all shared
    // state — the epoch multiples, the measuring flip, each sampler
    // boundary (reproduced bit-for-bit from the sampler's own integer
    // arithmetic), and the run end. Duplicates collapse, so an edge
    // landing exactly on an epoch multiple yields one edge, not a
    // zero-length epoch.
    std::vector<TimeNs> edges;
    for (std::uint64_t k = 1; static_cast<double>(k) * epoch_ns < end; ++k)
        edges.push_back(static_cast<double>(k) * epoch_ns);
    if (warm_end > 0 && warm_end < end)
        edges.push_back(warm_end);
    if (sampler_) {
        const std::uint64_t ivns = sampler_->interval_ns();
        for (std::uint64_t k = 1;; ++k) {
            const TimeNs b = warm_end + static_cast<double>(k * ivns);
            if (b >= end)
                break;
            edges.push_back(b);
        }
    }
    edges.push_back(end);
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

    // Per-core work queues, all filled by the conductor at edges and
    // drained by the owning core's worker inside the epoch: arrivals
    // (RSS pre-routed; queue q == core q on every NIC) and
    // TX-completion effects (device reads + buffer returns, in drain
    // order, tagged with the completing device). The epoch's frames
    // sit back to back in one flat byte buffer that the generators
    // write in place and the workers only read; each core keeps its
    // arrivals in start order with their frame offsets. Both keep
    // their capacity from epoch to epoch.
    struct Staged {
        Arrival a;
        std::size_t off = 0;  ///< frame offset in frames
    };
    struct CoreArrivals {
        std::vector<Staged> staged;
        std::size_t next = 0;  ///< first undelivered arrival
    };
    std::vector<std::uint8_t> frames;
    std::size_t frames_used = 0;
    std::vector<CoreArrivals> arrivals(cores_.size());
    std::vector<std::vector<PendingTx>> pending_tx(cores_.size());

    // Stage every arrival that starts before @p hi, in pacer order
    // (earliest start, ties to the lower NIC).
    auto pregen = [&](TimeNs hi) {
        for (;;) {
            std::uint32_t n = 0;
            if (!(next_arrival(&n) < hi))
                break;
            if (frames.size() < frames_used + kMaxFrameLen)
                frames.resize(2 * (frames_used + kMaxFrameLen));
            std::uint8_t *frame = frames.data() + frames_used;
            const Arrival a = pace(n, frame);
            std::uint32_t b = kRssTableSize;
            const std::uint32_t q = nics_[n]->rss_queue(frame, a.len, &b);
            // The RETA's heat signal (a single queue never hashes, so
            // b stays unset); a fabric counts its own.
            if (!steer_ && b < kRssTableSize)
                ++rss_loads_[b];
            arrivals[q].staged.push_back({a, frames_used});
            frames_used += a.len;
        }
    };

    // Apply core @p ci's TX-completion effects from the last edge, in
    // drain order: the deferred device reads (descriptor, then frame)
    // on the core's own hierarchy, then the buffer return. Runs on
    // the worker at epoch start — the same position in the core's
    // access sequence for every thread count.
    auto apply_tx_effects = [&](std::uint32_t ci) {
        std::vector<PendingTx> &fx = pending_tx[ci];
        if (fx.empty())
            return;
        Core &core = *cores_[ci];
        CacheHierarchy &qc = *core.caches;
        for (const PendingTx &p : fx) {
            const TxCompletion &c = p.c;
            qc.access(c.desc_addr, NicDevice::kDescBytes,
                      AccessType::kDevRead);
            // Parking: the buffer holds only the header prefix; the
            // payload is gathered from the park arena.
            qc.access(c.buf_addr, c.len - c.park.len, AccessType::kDevRead);
            if (c.park.len != 0)
                qc.access(c.park.addr, c.park.len, AccessType::kParkRead);
            core.dps[p.nic].dp->on_tx_complete(c);
        }
        fx.clear();
    };

    // Advance core @p ci to (at least) @p t1. Touches only the core's
    // own state, its queue's NIC shards, and its staged arrivals —
    // safe to run concurrently with other cores' segments.
    auto run_core_epoch = [&](std::uint32_t ci, TimeNs t1) {
        Core &core = *cores_[ci];
        apply_tx_effects(ci);
        CoreArrivals &ca = arrivals[ci];
        const bool tron = PMILL_TRACE_ON(tracer_.get());
        for (;;) {
            // Deliver every arrival the core has reached. Arrival
            // wins ties with the poll at the same instant.
            while (ca.next < ca.staged.size() &&
                   ca.staged[ca.next].a.start <= core.clock) {
                const Staged &st = ca.staged[ca.next++];
                nics_[st.a.nic]->deliver(ci, frames.data() + st.off,
                                         st.a.len, st.a.done);
            }
            if (core.clock >= t1)
                break;
            TimeNs until = t1;
            if (ca.next < ca.staged.size())
                until = std::min(until, ca.staged[ca.next].a.start);
            // Idle fast-forward (bit-identical spin replay) whenever
            // this core's queues are dry: drains and sampling only
            // happen at edges, and other cores cannot reach this one
            // mid-epoch.
            if (!tron && next_cqe_time(core) == kInf)
                idle_spin(core, until);
            else
                step_core(core);
        }
    };

    // Worker j owns cores {c : c % nthreads == j}, processed in
    // ascending core order. The partition cannot affect results: each
    // core's segment reads/writes only its own state.
    auto run_share = [&](std::uint32_t share, TimeNs t1) {
        for (std::uint32_t ci = share; ci < ncores; ci += nthreads)
            run_core_epoch(ci, t1);
    };

    // Epoch barrier: the conductor publishes the epoch target then
    // bumps `go` (release); workers acquire it, run their share, and
    // bump `done`. All cross-thread data passed through the work
    // queues is ordered by these two edges.
    std::atomic<std::uint64_t> go{0};
    std::atomic<std::uint32_t> done{0};
    std::atomic<bool> quit{false};
    TimeNs epoch_t1 = 0;
    std::vector<std::thread> pool;
    if (nthreads > 1) {
        pool.reserve(nthreads - 1);
        for (std::uint32_t j = 1; j < nthreads; ++j) {
            pool.emplace_back([&, j] {
                std::uint64_t seen = 0;
                unsigned spins = 0;
                for (;;) {
                    while (go.load(std::memory_order_acquire) == seen) {
                        if (quit.load(std::memory_order_acquire))
                            return;
                        barrier_relax(spins);
                    }
                    ++seen;
                    run_share(j, epoch_t1);
                    done.fetch_add(1, std::memory_order_release);
                }
            });
        }
    }
    auto parallel_epoch = [&](TimeNs t1) {
        if (nthreads <= 1) {
            for (std::uint32_t ci = 0; ci < ncores; ++ci)
                run_core_epoch(ci, t1);
            return;
        }
        epoch_t1 = t1;
        done.store(0, std::memory_order_relaxed);
        go.fetch_add(1, std::memory_order_release);
        run_share(0, t1);
        unsigned spins = 0;
        while (done.load(std::memory_order_acquire) != nthreads - 1)
            barrier_relax(spins);
    };

    // Zero warm-up: the window opens at t=0, before the first epoch.
    if (!measuring_ && warm_end <= 0)
        begin_measuring(warm_end);

    for (std::size_t i = 0; i < edges.size(); ++i) {
        const TimeNs t1 = edges[i];
        const bool last = i + 1 == edges.size();
        // 1) Synthesize this epoch's arrivals (conductor; exact).
        pregen(t1);
        // 2) Cores advance to t1 in parallel. Every staged arrival
        //    starts before t1 and a core leaves the epoch only once
        //    its clock reaches t1, so every arrival was delivered.
        parallel_epoch(t1);
        for (CoreArrivals &ca : arrivals) {
            PMILL_ASSERT(ca.next == ca.staged.size(),
                         "staged arrival left undelivered at an edge");
            ca.staged.clear();
            ca.next = 0;
        }
        frames_used = 0;
        // 3) Serial edge phase, fixed order: wire drain (pre-flip at
        //    the warm_end edge, so the measured window is departures
        //    in (warm_end, end] for every thread count), then the
        //    steering merge, then the measuring flip, then
        //    sampling + control.
        drain_all_tx(t1, pending_tx);
        flush_steering();
        if (!measuring_ && t1 >= warm_end)
            begin_measuring(warm_end);
        if (last) {
            // Final effects are applied by the conductor (core order)
            // so end-of-run state — pool occupancies, ledgers — does
            // not depend on a worker that never runs again.
            for (std::uint32_t ci = 0; ci < ncores; ++ci)
                apply_tx_effects(ci);
        }
        sample(t1, last);
    }

    if (nthreads > 1) {
        quit.store(true, std::memory_order_release);
        for (std::thread &t : pool)
            t.join();
    }

    return finish_run(warm_end, end);
}

std::vector<std::string>
Engine::acct_scope_labels() const
{
    std::vector<std::string> labels;
    for (std::uint16_t s = 0; s < kAcctNumFixedScopes; ++s)
        labels.push_back(acct_scope_name(s));
    for (const Element *e : cores_[0]->pipe->elements())
        labels.push_back(e->name().empty() ? e->class_name()
                                           : e->name());
    return labels;
}

const Timeline &
Engine::timeline() const
{
    static const Timeline kEmpty;
    return sampler_ ? sampler_->timeline() : kEmpty;
}

std::vector<ElementStats>
Engine::element_stats() const
{
    std::vector<ElementStats> sum;
    for (const auto &core : cores_) {
        const auto &es = core->pipe->element_stats();
        if (sum.size() < es.size())
            sum.resize(es.size());
        for (std::size_t i = 0; i < es.size(); ++i) {
            sum[i].packets += es[i].packets;
            sum[i].batches += es[i].batches;
            sum[i].cycles += es[i].cycles;
            sum[i].mem_ns += es[i].mem_ns;
        }
    }
    return sum;
}

} // namespace pmill
