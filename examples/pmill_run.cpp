/**
 * @file
 * pmill_run — the command-line front end: run any Click configuration
 * file on the simulated 100-Gbps testbed, FastClick-style.
 *
 *   example_pmill_run configs/router.click
 *   example_pmill_run configs/nat.click --opt packetmill --cores 4
 *   example_pmill_run configs/forwarder.click --model xchange \
 *       --freq 1.2 --offered 60 --size 64
 *   example_pmill_run configs/router.click --opt all --verify
 *
 * The options, their ranges and defaults are the flag table in main();
 * `example_pmill_run --help` prints them. Cross-flag rules run after
 * the whole argv is parsed, so flag order never matters.
 */

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/cli.hh"
#include "src/pmill.hh"

using namespace pmill;

namespace {

const std::map<std::string, PipelineOpts (*)()> kOptLevels = {
    {"vanilla", opts_vanilla},
    {"devirt", opts_devirtualize},
    {"constants", opts_constants},
    {"static", opts_static_graph},
    {"all", opts_source_all},
    {"packetmill", opts_packetmill},
    {"lto-reorder", opts_lto_reorder},
};

const std::map<std::string, MetadataModel> kModels = {
    {"copying", MetadataModel::kCopying},
    {"overlaying", MetadataModel::kOverlaying},
    {"xchange", MetadataModel::kXchange},
    {"parking", MetadataModel::kParking},
};

template <typename T>
std::vector<std::string>
names_of(const std::map<std::string, T> &table)
{
    std::vector<std::string> names;
    for (const auto &entry : table)
        names.push_back(entry.first);
    return names;
}

/** Print a usage error and return pmill_run's usage-error exit code. */
[[gnu::format(printf, 1, 2)]] int
reject(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::fputs("pmill_run: ", stderr);
    std::vfprintf(stderr, fmt, ap);
    std::fputc('\n', stderr);
    va_end(ap);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string opt_level = "vanilla", model_name;
    double freq = 2.3, offered = 100.0, duration_us = 2500.0;
    double sample_us = 100.0;
    std::uint32_t cores = 1, nics = 1, fixed_size = 0;
    std::uint32_t host_threads = 1;
    std::uint32_t sockets = 1, queue_weight = 1;
    std::uint32_t park_split = 0;  // 0 = not given (model default 96)
    bool do_verify = false, do_report = false, do_json = false;
    bool do_explain = false;
    std::string stats_json_path;
    std::string trace_out_path, trace_jsonl_path;
    std::string profile_out_path, profile_in_path;
    std::string control_policy, decision_log_path;
    std::string workload_arg;
    double load_step_us = 0.0, load_step_gbps = 0.0;
    double trace_rate = 1.0;

    using U32 = CliFlag::U32;
    using Double = CliFlag::Double;
    using Choice = CliFlag::Choice;
    const CliSpec spec{"pmill_run", {"<config.click>"}, {
        {"--opt", "LEVEL", "optimization preset (default vanilla)",
         Choice{&opt_level, names_of(kOptLevels)}},
        {"--model", "M", "metadata model, overriding the --opt preset's",
         Choice{&model_name, names_of(kModels)}},
        {"--park-split", "BYTES",
         "parking header/payload split (default 96); needs --model parking",
         U32{&park_split, 64, 1514}},
        {"--freq", "GHZ", "core frequency (default 2.3)",
         Double{.out = &freq, .lo = 0, .hi = 10, .lo_open = true}},
        {"--offered", "GBPS", "offered load (default 100)",
         Double{.out = &offered, .lo = 0, .hi = 1000, .lo_open = true}},
        {"--cores", "N", "RSS cores (default 1)", U32{&cores, 1, 64}},
        {"--host-threads", "N",
         "host workers of the epoch scheduler (default 1, at most "
         "--cores); results are bit-identical for every N; tracing "
         "forces 1",
         U32{&host_threads, 1, 64}},
        {"--nics", "N", "NICs, one RX queue per core each (default 1)",
         U32{&nics, 1, 8}},
        {"--sockets", "N", "NUMA sockets (default 1, at most --cores)",
         U32{&sockets, 1, 8}},
        {"--queue-weight", "W", "round-robin weight of every queue (default 1)",
         U32{&queue_weight, 1, 64}},
        {"--size", "BYTES", "fixed-size traffic instead of the campus trace",
         U32{&fixed_size, 60, 1514}},
        {"--workload", "SPEC",
         "synthesize traffic from an inline spec (zipf:flows=1000000, "
         "skew=1.1,burst=8) or a spec file; not with --size, --verify",
         &workload_arg},
        {"--duration", "US", "measured interval (default 2500)",
         Double{.out = &duration_us, .lo = 0, .hi = 1e9, .lo_open = true}},
        {"--verify", "", "check equivalence against the vanilla build "
         "(with --profile-in: against the unguided build)", &do_verify},
        {"--report", "", "print the PacketMill optimization report",
         &do_report},
        {"--explain", "", "print the cycle-accounting bottleneck report",
         &do_explain},
        {"--json", "", "print the results as a JSON object", &do_json},
        {"--stats-json", "PATH", "write samples, cycle ledger, element "
         "costs and the run summary as JSON Lines", &stats_json_path},
        {"--sample-interval-us", "N",
         "telemetry sample period (default 100, 0 = no sampling)",
         Double{.out = &sample_us, .lo = 0, .hi = 1e9}},
        {"--trace-out", "PATH", "write a Chrome/Perfetto trace",
         &trace_out_path},
        {"--trace-jsonl", "PATH", "write the trace and tail attribution",
         &trace_jsonl_path},
        {"--trace-sample-rate", "R", "fraction of packets traced (default 1)",
         Double{.out = &trace_rate, .lo = 0, .hi = 1, .lo_open = true}},
        {"--profile-out", "PATH", "capture a Profile of this run",
         &profile_out_path},
        {"--profile-in", "PATH", "apply a Profile's searched plan",
         &profile_in_path},
        {"--control", "POLICY", "closed-loop control; needs sampling",
         Choice{&control_policy, {"hysteresis", "aimd", "steer"}}},
        {"--decision-log", "PATH", "write the controller's decisions as "
         "JSON Lines; needs --control", &decision_log_path},
        {"--load-step-us", "US", "step the offered load this long into the "
         "measured window (0 = never); needs --load-step-gbps",
         Double{.out = &load_step_us, .lo = 0, .hi = 1e9}},
        {"--load-step-gbps", "GBPS", "offered load after the load step",
         Double{.out = &load_step_gbps, .lo = 0, .hi = 1000, .lo_open = true}},
    }};
    const CliResult args = cli_parse(spec, argc, argv);
    if (const int rc = cli_report(spec, args); rc >= 0)
        return rc;
    const std::string &config_path = args.positionals[0];

    // Rules the flag table cannot express (power-of-two buckets and
    // cross-flag combinations): a clean diagnostic instead of an engine
    // assertion.
    if (sockets > cores)
        return reject("--sockets %u exceeds --cores %u (a socket with no "
                      "core would never be accessed)",
                      sockets, cores);
    if (host_threads > cores)
        return reject("--host-threads %u exceeds --cores %u (a worker with "
                      "no simulated core to drive would idle forever)",
                      host_threads, cores);
    // The --opt preset is applied first and --model overrides its
    // model afterwards, whatever order the flags came in.
    PipelineOpts opts = kOptLevels.at(opt_level)();
    if (!model_name.empty())
        opts.model = kModels.at(model_name);
    if (park_split != 0) {
        // The split only exists in the parking datapath; silently
        // accepting it under another model would look like it worked.
        if (opts.model != MetadataModel::kParking)
            return reject("--park-split requires the parking metadata "
                          "model (--model parking)");
        opts.park_split_bytes = park_split;
    }
    if (!decision_log_path.empty() && control_policy.empty())
        return reject("--decision-log requires --control");
    // The controller acts on sampled telemetry; without samples it
    // would run and never decide anything.
    if (!control_policy.empty() && sample_us == 0)
        return reject("--control needs telemetry samples, but "
                      "--sample-interval-us 0 disables sampling");
    if ((load_step_us > 0) != (load_step_gbps > 0))
        return reject("--load-step-us and --load-step-gbps must be "
                      "given together");
    const bool use_workload = !workload_arg.empty();
    if (use_workload && fixed_size)
        return reject("--workload and --size are mutually exclusive (a "
                      "workload defines its own sizes)");
    if (use_workload && do_verify)
        return reject("--verify replays a trace and cannot be combined "
                      "with --workload");

    WorkloadSpec wspec;
    std::string werr;
    if (use_workload && !load_workload_spec(workload_arg, &wspec, &werr))
        return reject("bad --workload: %s", werr.c_str());

    std::ifstream in(config_path);
    if (!in) {
        std::fprintf(stderr, "cannot open %s\n", config_path.c_str());
        return 1;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string config = ss.str();

    Trace trace;
    if (!use_workload)
        trace = fixed_size ? make_fixed_size_trace(fixed_size, 2048, 512)
                           : default_campus_trace();

    MachineConfig machine;
    machine.freq_ghz = freq;
    machine.num_cores = cores;
    machine.num_nics = nics;
    machine.num_sockets = sockets;

    // Profile-guided grind: load the capture artifact and fold the
    // plan's build-time decisions (burst, model, state placement) into
    // the options before the engine is built; the in-place decisions
    // are applied by the guided grind below.
    Profile profile;
    const bool guided = !profile_in_path.empty();
    const PipelineOpts base_opts = opts;
    ActuationLimits limits;
    if (guided) {
        std::string perr;
        if (!Profile::load(profile_in_path, &profile, &perr)) {
            std::fprintf(stderr, "pmill_run: %s\n", perr.c_str());
            return 1;
        }
        const Plan plan = PlanSearch::search(profile, opts);
        // The plan's searched burst bounds the controller's actuation
        // range (applied below only when --control is given).
        limits = ActuationLimits::from_plan(plan, opts);
        opts = plan.apply_to_opts(opts);
        if (!do_json)
            std::printf("%s", plan.to_string().c_str());
    }

    std::unique_ptr<Engine> engine_ptr =
        use_workload
            ? std::make_unique<Engine>(machine, config, opts, wspec)
            : std::make_unique<Engine>(machine, config, opts, trace);
    Engine &engine = *engine_ptr;

    if (queue_weight != 1)
        for (std::uint32_t c = 0; c < engine.num_cores(); ++c)
            for (std::uint32_t q = 0; q < engine.num_polled_queues(c);
                 ++q)
                engine.set_queue_weight(c, q, queue_weight);

    std::unique_ptr<Controller> controller;
    if (!control_policy.empty()) {
        ControlConfig cc;
        cc.limits = limits;
        controller = std::make_unique<Controller>(
            make_policy(control_policy, cc.limits, cc.policy), cc);
        engine.set_controller(controller.get());
    }
    MillReport mill_report = guided ? PacketMill::grind(engine, &profile)
                                    : PacketMill::grind(engine);
    if (do_report)
        std::printf("%s\n", mill_report.to_string().c_str());

    const bool tracing =
        !trace_out_path.empty() || !trace_jsonl_path.empty();
    if (tracing) {
        TracerConfig tc;
        tc.sample_rate = trace_rate;
        engine.enable_tracing(tc);
    }
    if (!profile_out_path.empty())
        engine.set_profile_capture(true);

    RunConfig rc;
    rc.offered_gbps = offered;
    rc.warmup_us = 1000;
    rc.duration_us = duration_us;
    rc.sample_interval_us = sample_us;
    rc.load_step_us = load_step_us;
    rc.load_step_gbps = load_step_gbps;
    rc.host_threads = host_threads;

    const auto host_t0 = std::chrono::steady_clock::now();
    RunResult r = engine.run(rc);
    const auto host_t1 = std::chrono::steady_clock::now();
    // Host (simulator) speed: how much simulated time and traffic one
    // wall-clock second buys on this machine.
    const double host_wall_s =
        std::chrono::duration<double>(host_t1 - host_t0).count();
    const double sim_s = (rc.warmup_us + rc.duration_us) * 1e-6;
    const double host_pkts_per_s =
        host_wall_s > 0 ? r.tx_pkts / host_wall_s : 0.0;
    const double sim_per_wall = host_wall_s > 0 ? sim_s / host_wall_s : 0.0;

    if (!decision_log_path.empty()) {
        std::ofstream out(decision_log_path);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n",
                         decision_log_path.c_str());
            return 1;
        }
        controller->log().write_jsonl(out);
    }

    if (!profile_out_path.empty()) {
        const Profile captured = build_profile(engine, r);
        std::string perr;
        if (!captured.save(profile_out_path, &perr)) {
            std::fprintf(stderr, "pmill_run: %s\n", perr.c_str());
            return 1;
        }
        if (!do_json)
            std::printf("profile written to %s\n",
                        profile_out_path.c_str());
    }

    TailAttribution tail;
    if (tracing) {
        tail = engine.tail_attribution();
        if (!trace_out_path.empty()) {
            std::ofstream out(trace_out_path);
            if (!out) {
                std::fprintf(stderr, "cannot write %s\n",
                             trace_out_path.c_str());
                return 1;
            }
            // Counter tracks are anchored at measurement start (the
            // timeline's t=0 is the end of warm-up).
            export_chrome_trace(*engine.tracer(), engine.timeline(),
                                rc.warmup_us * 1000.0, out);
        }
        if (!trace_jsonl_path.empty()) {
            std::ofstream out(trace_jsonl_path);
            if (!out) {
                std::fprintf(stderr, "cannot write %s\n",
                             trace_jsonl_path.c_str());
                return 1;
            }
            export_trace_jsonl(*engine.tracer(), out);
            tail.write_jsonl(out);
        }
    }

    const std::vector<Element *> elems = engine.pipeline().elements();
    const std::vector<ElementStats> estats = engine.element_stats();

    if (!stats_json_path.empty()) {
        std::ofstream out(stats_json_path);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n",
                         stats_json_path.c_str());
            return 1;
        }
        out << JsonRecord("meta")
                   .str("config", config_path)
                   .str("model", metadata_model_name(opts.model))
                   .num("freq_ghz", freq).integer("cores", cores)
                   .integer("nics", nics).num("offered_gbps", offered)
                   .num("sample_interval_us", sample_us);
        export_jsonl(engine.timeline(), out);
        if (controller)
            controller->log().write_jsonl(out);
        acct_write_jsonl(acct_report_from_engine(engine), out);
        for (std::size_t i = 0; i < elems.size() && i < estats.size();
             ++i) {
            const ElementStats &es = estats[i];
            out << JsonRecord("element")
                       .str("name", elems[i]->name())
                       .str("class", elems[i]->class_name())
                       .integer("packets", es.packets)
                       .integer("batches", es.batches)
                       .num("cycles", es.cycles).num("mem_ns", es.mem_ns)
                       .num("cycles_per_packet", es.cycles_per_packet())
                       .num("mem_ns_per_packet", es.mem_ns_per_packet());
        }
        out << JsonRecord("summary")
                   .num("throughput_gbps", r.throughput_gbps)
                   .num("goodput_gbps", r.goodput_gbps).num("mpps", r.mpps)
                   .num("mean_latency_us", r.mean_latency_us)
                   .num("median_latency_us", r.median_latency_us)
                   .num("p99_latency_us", r.p99_latency_us)
                   .integer("tx_pkts", r.tx_pkts)
                   .integer("rx_drops", r.rx_drops).num("ipc", r.ipc)
                   .num("llc_kloads_per_100ms", r.llc_kloads_per_100ms)
                   .num("llc_kmisses_per_100ms", r.llc_kmisses_per_100ms);
        out << JsonRecord("host")
                   .num("wall_s", host_wall_s).num("sim_s", sim_s)
                   .num("sim_per_wall", sim_per_wall)
                   .num("sim_pkts_per_s", host_pkts_per_s)
                   .integer("host_threads", host_threads);
    }

    if (do_json) {
        std::printf(
            "{\n"
            "  \"config\": \"%s\",\n"
            "  \"model\": \"%s\",\n"
            "  \"freq_ghz\": %.2f,\n"
            "  \"cores\": %u,\n"
            "  \"nics\": %u,\n"
            "  \"offered_gbps\": %.2f,\n"
            "  \"throughput_gbps\": %.3f,\n"
            "  \"goodput_gbps\": %.3f,\n"
            "  \"mpps\": %.3f,\n"
            "  \"latency_us\": {\"mean\": %.3f, \"median\": %.3f, "
            "\"p99\": %.3f},\n"
            "  \"rx_drops\": %llu,\n"
            "  \"llc_kloads_per_100ms\": %.1f,\n"
            "  \"llc_kmisses_per_100ms\": %.2f,\n"
            "  \"ipc\": %.3f\n"
            "}\n",
            config_path.c_str(), metadata_model_name(opts.model), freq,
            cores, nics, offered, r.throughput_gbps, r.goodput_gbps,
            r.mpps, r.mean_latency_us, r.median_latency_us,
            r.p99_latency_us, static_cast<unsigned long long>(r.rx_drops),
            r.llc_kloads_per_100ms, r.llc_kmisses_per_100ms, r.ipc);
        return 0;
    }

    std::printf("config:     %s\n", config_path.c_str());
    std::printf("model:      %s%s\n", metadata_model_name(opts.model),
                opts.static_graph ? " + static graph" : "");
    std::printf("machine:    %u core(s) @ %.1f GHz, %u NIC(s)\n", cores,
                freq, nics);
    std::printf("offered:    %.1f Gbps (%s traffic)\n", offered,
                use_workload ? "synthesized"
                             : (fixed_size ? "fixed-size" : "campus-like"));
    if (use_workload) {
        std::printf("workload:   %s\n",
                    engine.workload()->spec().to_string().c_str());
        WorkloadStats ws;
        std::uint64_t state = 0;
        for (std::uint32_t n = 0; engine.workload(n); ++n) {
            const WorkloadStats &s = engine.workload(n)->stats();
            ws.frames += s.frames;
            ws.bytes += s.bytes;
            ws.flows_born += s.flows_born;
            ws.flows_died += s.flows_died;
            ws.syn_frames += s.syn_frames;
            ws.fin_frames += s.fin_frames;
            state += engine.workload(n)->state_bytes();
        }
        std::printf("generator:  %llu frames, %llu flows born / %llu "
                    "died, %llu SYN / %llu FIN, %.1f MB flow state\n",
                    static_cast<unsigned long long>(ws.frames),
                    static_cast<unsigned long long>(ws.flows_born),
                    static_cast<unsigned long long>(ws.flows_died),
                    static_cast<unsigned long long>(ws.syn_frames),
                    static_cast<unsigned long long>(ws.fin_frames),
                    static_cast<double>(state) / 1e6);
        // Stateful elements: occupancy and churn, summed over cores.
        const std::vector<Element *> e0 = engine.pipeline(0).elements();
        for (std::size_t ei = 0; ei < e0.size(); ++ei) {
            FlowTableStats sum;
            bool any = false;
            for (std::uint32_t c = 0; c < engine.num_cores(); ++c) {
                FlowTableStats st;
                if (!engine.pipeline(c).elements()[ei]->flow_table_stats(
                        &st))
                    continue;
                any = true;
                sum.occupancy += st.occupancy;
                sum.capacity += st.capacity;
                sum.memory_bytes += st.memory_bytes;
                sum.inserts += st.inserts;
                sum.failed_inserts += st.failed_inserts;
                sum.displacements += st.displacements;
                sum.evictions += st.evictions;
                sum.half_open += st.half_open;
                if (st.max_kick_chain > sum.max_kick_chain)
                    sum.max_kick_chain = st.max_kick_chain;
            }
            if (!any)
                continue;
            const std::string nm =
                e0[ei]->name().empty() ? std::string(e0[ei]->class_name())
                                       : e0[ei]->name();
            std::printf(
                "flow table: %s %llu/%llu entries (%llu half-open), "
                "%llu inserts (%llu failed), %llu evictions, "
                "%llu displacements (max chain %llu)\n",
                nm.c_str(),
                static_cast<unsigned long long>(sum.occupancy),
                static_cast<unsigned long long>(sum.capacity),
                static_cast<unsigned long long>(sum.half_open),
                static_cast<unsigned long long>(sum.inserts),
                static_cast<unsigned long long>(sum.failed_inserts),
                static_cast<unsigned long long>(sum.evictions),
                static_cast<unsigned long long>(sum.displacements),
                static_cast<unsigned long long>(sum.max_kick_chain));
        }
    }
    std::printf("throughput: %.2f Gbps wire / %.2f Gbps goodput "
                "(%.2f Mpps)\n",
                r.throughput_gbps, r.goodput_gbps, r.mpps);
    std::printf("latency:    mean %.2f / median %.2f / p99 %.2f us\n",
                r.mean_latency_us, r.median_latency_us, r.p99_latency_us);
    std::printf("drops:      %llu\n",
                static_cast<unsigned long long>(r.rx_drops));
    std::printf("llc:        %.0f kilo-loads, %.1f kilo-misses per "
                "100 ms; IPC %.2f\n",
                r.llc_kloads_per_100ms, r.llc_kmisses_per_100ms, r.ipc);
    std::printf("host:       %.0f ms wall (%u thread%s), "
                "%.2f Msim-pkt/s, %.4f sim-s per wall-s\n",
                host_wall_s * 1e3, host_threads,
                host_threads == 1 ? "" : "s", host_pkts_per_s / 1e6,
                sim_per_wall);
    if (controller) {
        std::printf("control:    %s policy, %zu decision(s)\n",
                    controller->policy().name(),
                    controller->log().size());
        if (!controller->log().empty())
            std::printf("%s", controller->log().to_string().c_str());
    }

    if (!estats.empty()) {
        TablePrinter t;
        t.header({"element", "class", "packets", "batches", "cyc/pkt",
                  "mem-ns/pkt"});
        char buf[64];
        for (std::size_t i = 0; i < elems.size() && i < estats.size();
             ++i) {
            const ElementStats &es = estats[i];
            std::vector<std::string> cells;
            cells.push_back(elems[i]->name());
            cells.push_back(elems[i]->class_name());
            cells.push_back(std::to_string(es.packets));
            cells.push_back(std::to_string(es.batches));
            std::snprintf(buf, sizeof buf, "%.1f",
                          es.cycles_per_packet());
            cells.push_back(buf);
            std::snprintf(buf, sizeof buf, "%.1f",
                          es.mem_ns_per_packet());
            cells.push_back(buf);
            t.row(std::move(cells));
        }
        t.print("per-element cost (measured window)");
    }

    if (tracing && !do_json) {
        std::printf("\n%s", tail.to_string().c_str());
        if (!tail.dominant_stage.empty())
            std::printf("tail latency dominated by: %s\n",
                        tail.dominant_stage.c_str());
    }

    if (do_explain) {
        std::ostringstream os;
        os << "\n";
        acct_render_report(acct_report_from_engine(engine), os);
        std::fputs(os.str().c_str(), stdout);
    }

    if (do_verify) {
        if (guided) {
            std::printf("\nverifying the profile-guided plan against "
                        "the unguided build...\n");
            EquivalenceReport vr =
                verify_plan(config, base_opts, profile, trace, 600.0);
            std::printf("%s\n", vr.to_string().c_str());
            return vr.equivalent ? 0 : 1;
        }
        std::printf("\nverifying against the vanilla build...\n");
        EquivalenceReport vr = verify_equivalence(config, opts_vanilla(),
                                                  opts, trace, 600.0);
        std::printf("%s\n", vr.to_string().c_str());
        return vr.equivalent ? 0 : 1;
    }
    return 0;
}
