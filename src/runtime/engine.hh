/**
 * @file
 * The testbed engine: a discrete-event simulation of the paper's
 * experimental setup — a packet generator driving a Device Under
 * Test over 100-Gbps link(s), with the DUT running an element
 * pipeline on one or more cores.
 *
 * Topologies covered:
 *  - 1 NIC / 1 core (most figures),
 *  - 2 NICs / 1 core (Fig. 5b, the >100 Gbps X-Change result),
 *  - 1 NIC / k cores with RSS (Fig. 10, multicore NAT).
 */

#ifndef PMILL_RUNTIME_ENGINE_HH
#define PMILL_RUNTIME_ENGINE_HH

#include <array>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/accounting/cycle_account.hh"
#include "src/common/histogram.hh"
#include "src/common/log.hh"
#include "src/control/actuator.hh"
#include "src/framework/datapath.hh"
#include "src/framework/exec_context.hh"
#include "src/framework/pipeline.hh"
#include "src/mem/cache.hh"
#include "src/mem/sim_memory.hh"
#include "src/nic/nic_device.hh"
#include "src/runtime/cost_model.hh"
#include "src/telemetry/metrics.hh"
#include "src/telemetry/sampler.hh"
#include "src/trace/trace.hh"
#include "src/tracing/lifecycle.hh"
#include "src/tracing/tracer.hh"
#include "src/workload/workload.hh"

namespace pmill {

/** Static parameters of the simulated machine. */
struct MachineConfig {
    double freq_ghz = 2.3;   ///< DUT core frequency (the paper sweeps it)
    CacheConfig cache;       ///< per-socket hierarchy (DDIO ways = 8)
    CostModel cost;
    NicConfig nic;
    std::uint32_t num_cores = 1;
    std::uint32_t num_nics = 1;
    /**
     * NUMA sockets. Cores are split across sockets in contiguous
     * blocks (core c lives on socket c * num_sockets / num_cores) and
     * each core's pipeline state and mempools are homed on its own
     * socket; DRAM fills from a remote socket pay
     * CacheConfig::numa_remote_ns. 1 (the default) keeps the flat
     * machine every legacy result was produced on.
     */
    std::uint32_t num_sockets = 1;
};

/** Parameters of one measurement run. */
struct RunConfig {
    double offered_gbps = 100.0;  ///< offered load per NIC (wire rate)
    double warmup_us = 1500.0;    ///< cache/pool warm-up interval
    double duration_us = 4000.0;  ///< measured interval
    double latency_range_us = 4000.0;  ///< histogram range
    /// Stop generating new arrivals this long after the warm-up ends
    /// (0 = never): lets the DUT drain completely so runs over the
    /// same trace emit exactly the same frames (verification mode).
    double generator_stop_us = 0.0;
    /// Telemetry snapshot period within the measured window (the
    /// scaling stand-in for the paper's 100-ms perf windows); 0
    /// disables in-run sampling.
    double sample_interval_us = 100.0;
    /// @name Load step (adaptive-control experiments).
    /// At load_step_us after measurement start the offered rate
    /// switches to load_step_gbps (0 in either field = no step).
    /// @{
    double load_step_us = 0.0;
    double load_step_gbps = 0.0;
    /// @}
    /// @name Parallel host execution.
    /// @{
    /// Host threads advancing simulated cores on the epoch scheduler
    /// (DESIGN.md section 9), in [1, simulated core count]. Results
    /// are bit-identical for every thread count.
    std::uint32_t host_threads = 1;
    /// Epoch length (simulated us) for the epoch scheduler. Results
    /// do not depend on the host thread count for any epoch length;
    /// the length trades conductor overhead against how promptly TX
    /// drains/telemetry observe the cores.
    double epoch_us = 1.0;
    /// @}
};

/** Results of one run (the quantities the paper's figures report). */
struct RunResult {
    double throughput_gbps = 0;  ///< TX wire rate (incl. framing)
    double goodput_gbps = 0;     ///< TX frame bytes only
    double mpps = 0;
    double mean_latency_us = 0;
    double median_latency_us = 0;
    double p99_latency_us = 0;
    std::uint64_t tx_pkts = 0;
    std::uint64_t rx_drops = 0;
    double duration_ns = 0;

    // perf-style microarchitectural metrics over the measured window
    MemStats mem;      ///< summed over cores
    ExecCounters exec; ///< summed over cores
    double ipc = 0;
    double llc_kloads_per_100ms = 0;
    double llc_kmisses_per_100ms = 0;
};

class Controller;
class FlowSteer;
class SteerFabric;

/** One experiment: machine + NF configuration + traffic. */
class Engine : public Actuator {
  public:
    /**
     * @param config_text Click configuration of the NF.
     * @param opts Optimization/model selection.
     * @param trace Traffic replayed cyclically into every NIC (one
     *        TraceReplay per NIC, each from the first frame).
     */
    Engine(const MachineConfig &machine, const std::string &config_text,
           const PipelineOpts &opts, Trace trace);

    /**
     * Streaming-workload variant: every NIC's FrameSource is a
     * WorkloadSource (stream = NIC index) synthesizing frames lazily —
     * million-flow universes with only per-flow slot state, no frame
     * arena.
     */
    Engine(const MachineConfig &machine, const std::string &config_text,
           const PipelineOpts &opts, const WorkloadSpec &workload);

    ~Engine();
    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /** Execute one run (warm-up + measurement). */
    RunResult run(const RunConfig &rc);

    /**
     * Install a hook receiving every transmitted frame's bytes at
     * wire-departure time (used by the equivalence verifier). Called
     * for completions inside the measurement window only.
     */
    void
    set_tx_capture(std::function<void(const std::uint8_t *, std::uint32_t)>
                       hook)
    {
        tx_capture_ = std::move(hook);
    }

    /** Pipeline of core @p core (for inspection / the mill). */
    Pipeline &
    pipeline(std::uint32_t core = 0)
    {
        PMILL_ASSERT(core < cores_.size(),
                     "core index %u out of range (engine has %zu cores)",
                     core, cores_.size());
        return *cores_[core]->pipe;
    }

    /** Number of DUT cores in this engine. */
    std::uint32_t
    num_cores() const override
    {
        return static_cast<std::uint32_t>(cores_.size());
    }

    /** Simulated memory (for diagnostics). */
    SimMemory &memory() { return *mem_; }

    /** Cache hierarchy of @p core (diagnostics / miss attribution). */
    CacheHierarchy &
    caches(std::uint32_t core = 0)
    {
        PMILL_ASSERT(core < cores_.size(),
                     "core index %u out of range (engine has %zu cores)",
                     core, cores_.size());
        return *cores_[core]->caches;
    }

    NicDevice &
    nic(std::uint32_t i = 0)
    {
        PMILL_ASSERT(i < nics_.size(),
                     "NIC index %u out of range (engine has %zu NICs)", i,
                     nics_.size());
        return *nics_[i];
    }

    /// @name Actuation surface (closed-loop control).
    /// All setters assert the bounds hard — the Controller clamps to
    /// its ActuationLimits before calling, so an out-of-range value
    /// here is a bug, not a policy overreach.
    /// @{
    std::uint32_t num_polled_queues(std::uint32_t core) const override;
    std::uint32_t rx_burst(std::uint32_t core) const override;
    void set_rx_burst(std::uint32_t core, std::uint32_t burst) override;
    double poll_backoff_ns(std::uint32_t core) const override;
    void set_poll_backoff_ns(std::uint32_t core, double ns) override;
    std::uint32_t queue_weight(std::uint32_t core,
                               std::uint32_t q) const override;
    void set_queue_weight(std::uint32_t core, std::uint32_t q,
                          std::uint32_t weight) override;

    /**
     * @name RSS/steering table actuation.
     * Routed to the software steering fabric when the pipeline carries
     * a FlowSteer element, otherwise to the NIC indirection tables (a
     * write reprograms the same entry on every NIC, reads come from
     * NIC 0 — the NICs run one shared table program, like a bonded
     * port). Both tables have kRssTableSize buckets.
     * @{
     */
    std::uint32_t rss_table_size() const override;
    std::uint32_t rss_table_entry(std::uint32_t idx) const override;
    void set_rss_table_entry(std::uint32_t idx,
                             std::uint32_t queue) override;
    std::uint64_t rss_entry_load(std::uint32_t idx) const override;
    void reset_rss_entry_loads() override;
    /// @}

    /**
     * Attach (or detach, with nullptr) a controller. Non-owning; the
     * engine calls on_run_start() when run() begins and observe()
     * after every sampler advance inside the measured window.
     */
    void set_controller(Controller *c) { controller_ = c; }
    /// @}

    /** The telemetry registry (aggregate + per-queue metrics). */
    MetricsRegistry &metrics() { return metrics_; }

    /**
     * The software flow-steering fabric, or nullptr when the pipeline
     * has no FlowSteer element.
     */
    SteerFabric *steering() { return steer_.get(); }
    const SteerFabric *steering() const { return steer_.get(); }

    /**
     * Workload source feeding NIC @p nic, or nullptr when this engine
     * replays a Trace instead or @p nic is past the last NIC.
     */
    WorkloadSource *
    workload(std::uint32_t nic = 0)
    {
        return nic < sources_.size()
                   ? dynamic_cast<WorkloadSource *>(sources_[nic].get())
                   : nullptr;
    }

    /**
     * Sampled time-series of the most recent run (empty before the
     * first run or when RunConfig::sample_interval_us is 0).
     */
    const Timeline &timeline() const;

    /**
     * Per-element execution counters of the most recent run's
     * measured window, summed over cores (config order).
     */
    std::vector<ElementStats> element_stats() const;

    /// @name Event tracing (off unless enable_tracing() is called).
    /// @{
    /**
     * Create the tracer and attach it to every instrumented
     * component (pipelines, PMDs, mempools, NICs). The ring is
     * cleared when measurement starts, so after run() it holds the
     * measured window's events.
     */
    void enable_tracing(const TracerConfig &cfg = TracerConfig{});

    /** The tracer, or nullptr when tracing was never enabled. */
    Tracer *tracer() { return tracer_.get(); }
    const Tracer *tracer() const { return tracer_.get(); }

    /**
     * Profile-capture mode: tracing on (created at defaults when
     * never enabled) plus per-rule hit counting in every element that
     * exposes rules. A subsequent run() leaves everything
     * build_profile() distills from.
     */
    void set_profile_capture(bool on);

    /** DUT core frequency (GHz). */
    double freq_ghz() const { return machine_.freq_ghz; }

    /// @name Cycle accounting (src/accounting/).
    /// @{
    /** Measured-window ledger breakdown of one core. */
    struct AcctCoreBreakdown {
        CycleAccount::Snapshot delta;  ///< ledger delta over the window
        /// Core-clock advance over the same window, in cycles:
        /// (clock_end - clock_start) * freq_ghz.
        double clock_cycles = 0;
        /// Ledger total minus the clock advance, in fixed point — the
        /// deterministic floating-point rounding residual of the
        /// second conservation tie (epsilon-asserted in run()).
        CycleAccount::Fixed residual = 0;
    };

    /**
     * Per-core measured-window breakdowns of the most recent run
     * (empty before the first run, or when accounting is compiled
     * out). Bucket sums equal totals exactly; run() asserts it.
     */
    const std::vector<AcctCoreBreakdown> &
    acct_breakdown() const
    {
        return acct_measured_;
    }

    /**
     * Human labels aligned with ledger scope indices: the fixed
     * scopes, then one label per pipeline element (instance name, or
     * class name when unnamed).
     */
    std::vector<std::string> acct_scope_labels() const;
    /// @}

    /**
     * Tail-latency attribution over the traced window. A negative
     * @p threshold_us means "use the most recent run's p99". Empty
     * when tracing is not enabled.
     */
    TailAttribution tail_attribution(double threshold_us = -1.0) const;
    /// @}

  private:
    struct BoundQueue {
        std::uint32_t nic = 0;
        std::uint32_t queue = 0;
        std::unique_ptr<Datapath> dp;
    };

    struct Core {
        std::unique_ptr<CacheHierarchy> caches;
        std::unique_ptr<ExecContext> ctx;
        std::unique_ptr<Pipeline> pipe;
        /// NIC queues this core polls round-robin, one per NIC in NIC
        /// order (dps[n].nic == n).
        std::vector<BoundQueue> dps;
        TimeNs clock = 0;
        TimeNs last_elapsed = 0;
        std::uint32_t rr_cursor = 0;
        std::uint8_t index = 0;  ///< stamped on trace records
        /// @name Actuated knobs (closed-loop control).
        /// @{
        /// Metronome-style sleep when this core's queues are dry
        /// (0 = classic busy-poll skipping to the next completion).
        TimeNs poll_backoff_ns = 0;
        /// Round-robin weight per polled queue (aligned with dps;
        /// weight w = up to w consecutive bursts per polling round).
        std::vector<std::uint32_t> weights;
        /// Core cycles burned busy-polling dry queues (counter).
        double poll_wait_cycles = 0;
        /// @}
        /// FlowSteer instances of this core's pipeline (bound to the
        /// shared fabric; empty when the config has none). Their
        /// release lists are flushed through the owning datapath
        /// after every process() call.
        std::vector<FlowSteer *> steer_elems;
    };

    /** One paced wire arrival. */
    struct Arrival {
        TimeNs start = 0;  ///< generator emission time (event order key)
        TimeNs done = 0;   ///< wire completion (NicDevice::deliver's now)
        std::uint32_t len = 0;
        std::uint32_t nic = 0;  ///< ingress device
    };

    /** A TX completion queued for its owning core. */
    struct PendingTx {
        std::uint32_t nic = 0;
        TxCompletion c;
    };

    /** Advance @p core by one poll iteration; returns its new clock. */
    void step_core(Core &core);

    /**
     * Replay @p core 's empty polls until its clock reaches @p until.
     * Performs exactly the per-poll state updates of step_core on a
     * dry queue — the same on_compute accumulation in the same order,
     * the same clock arithmetic, the same round-robin advance — so the
     * core's counters and clock are bit-identical to having spun
     * through step_core; it just skips the dry rx() calls. Only valid
     * while the core's queues hold no completion.
     */
    void idle_spin(Core &core, TimeNs until);

    /** Earliest pending CQE over @p core 's queues (infinite when dry). */
    TimeNs next_cqe_time(const Core &core) const;

    /** Advance @p core by its poll backoff, charged as idle time. */
    void sleep_backoff(Core &core);

    /** Shared constructor body (topology + telemetry). */
    void init(const std::string &config_text);

    /** Register the engine-level aggregate metrics (ctor helper). */
    void register_telemetry();

    /// @name Traffic generation and TX completion.
    /// @{
    /**
     * Emission time of the next arrival over all generators (ties go
     * to the lower NIC index, stored in @p nic); infinite once that
     * time reaches the run's generator stop.
     */
    TimeNs next_arrival(std::uint32_t *nic) const;

    /**
     * The pacing step of NIC @p nic 's generator: pull its next frame
     * into @p frame (room for kMaxFrameLen bytes), compute the frame's
     * wire done-time, and advance
     * next_start_ by the frame's share of the offered rate (the
     * post-step rate once the load step has passed) times the
     * source's gap scale. Pacing never depends on delivery outcomes,
     * so the epoch scheduler may run it ahead of the cores.
     */
    Arrival pace(std::uint32_t nic, std::uint8_t *frame);

    /**
     * Drain every NIC's wire up to @p now (NIC index order, drain
     * order within a NIC) and fold each completion: the TX capture
     * (before the park ticket is released), the tracer join and the
     * TX telemetry. The completion's device reads and buffer return
     * are queued on @p pending[queue] for the owning core to replay.
     */
    void drain_all_tx(TimeNs now,
                      std::vector<std::vector<PendingTx>> &pending);
    /// @}

    /**
     * Merge every staged handoff frame into its home core's NIC queue
     * (serial points only). Frames land on NIC 0's queue for the
     * destination core via the PCIe-skipping handoff path; a refused
     * frame (no RX descriptor / CQ full) is a steer ring drop.
     */
    void flush_steering();

    /// @name run() body.
    /// @{
    /**
     * Epoch scheduler: cores advance in parallel inside bounded time
     * epochs; all cross-core/shared-structure work happens serially at
     * epoch edges in config core order (DESIGN.md section 9).
     */
    RunResult run_epoch(const RunConfig &rc);

    /**
     * Flip into the measured window: snapshot per-core baselines (in
     * config core order), reset window counters/element stats, start
     * the sampler at @p warm_end, clear the trace ring.
     */
    void begin_measuring(TimeNs warm_end);

    /**
     * Advance the in-window sampler to @p t (finishing the run's
     * timeline when @p last) and let the controller observe it.
     */
    void sample(TimeNs t, bool last);

    /** Assemble the RunResult + conservation asserts (shared tail). */
    RunResult finish_run(TimeNs warm_end, TimeNs end);

    /** RX drops (no descriptor + PCIe) summed over NICs. */
    std::uint64_t rx_drops() const;
    /// @}

    MachineConfig machine_;
    PipelineOpts opts_;
    Trace trace_;  ///< frames the TraceReplay sources read (empty on
                   ///< workload engines)
    /// Frame source per NIC: a TraceReplay or a WorkloadSource.
    std::vector<std::unique_ptr<FrameSource>> sources_;
    /// Generator emission time of each NIC's next frame.
    std::vector<TimeNs> next_start_;
    double offered_gbps_ = 100.0;
    /// @name Load step (set per run; gated on load_step_gbps_ > 0).
    /// @{
    TimeNs load_step_at_ = 0;
    double load_step_gbps_ = 0;
    /// @}
    /// No arrival is generated at or after this time (set per run).
    TimeNs gen_stop_ = 0;
    Controller *controller_ = nullptr;  ///< non-owning; may be null

    std::unique_ptr<SimMemory> mem_;
    /// Flow-steering fabric (only when the config has FlowSteer).
    std::unique_ptr<SteerFabric> steer_;
    std::vector<std::unique_ptr<NicDevice>> nics_;
    /// Multi-queue arrivals per NIC RETA bucket, summed over the NICs
    /// (counted only without a fabric, which keeps its own).
    std::array<std::uint64_t, kRssTableSize> rss_loads_{};
    std::vector<std::unique_ptr<Core>> cores_;

    std::unique_ptr<Histogram> latency_;
    std::function<void(const std::uint8_t *, std::uint32_t)> tx_capture_;
    /// Hand @p c 's frame bytes to tx_capture_. A parked completion's
    /// buffer holds only the header, so the frame is gathered
    /// (buffer, park slot) into cap_buf_ first — host-side only, the
    /// simulated cost is the NIC's kParkRead gather.
    void capture_tx(const TxCompletion &c);
    std::array<std::uint8_t, kMaxFrameLen> cap_buf_{};
    bool measuring_ = false;
    std::uint64_t tx_pkts_ = 0;
    std::uint64_t tx_wire_bits_ = 0;
    std::uint64_t tx_frame_bits_ = 0;
    std::vector<TxCompletion> tx_scratch_;

    /// @name Telemetry.
    /// @{
    MetricsRegistry metrics_;
    std::unique_ptr<Sampler> sampler_;  ///< lives across run() calls
    CounterHandle m_tx_pkts_;  ///< hot-path slot counters
    CounterHandle m_tx_wire_bits_;
    Histogram *lat_interval_ = nullptr;  ///< per-interval latency
    /// @}

    /// @name Measured-window baselines (set by begin_measuring).
    /// @{
    std::vector<ExecCounters> exec_base_;
    std::vector<MemStats> mem_base_;
    std::uint64_t drops_base_ = 0;
    /// @}

    /// @name Cycle accounting (measured-window baselines + results).
    /// @{
    std::vector<CycleAccount::Snapshot> acct_base_;
    std::vector<TimeNs> acct_clock_base_;
    std::vector<AcctCoreBreakdown> acct_measured_;
    /// @}

    /// @name Tracing.
    /// @{
    std::unique_ptr<Tracer> tracer_;
    /// Sampled packets between RX and TX, keyed by the arrival-time
    /// bit pattern (the one field that survives into TxCompletion).
    std::unordered_map<std::uint64_t, std::uint64_t> inflight_;
    double last_p99_us_ = 0;
    /// @}
};

} // namespace pmill

#endif // PMILL_RUNTIME_ENGINE_HH
