/**
 * @file
 * Benchmark driver: runs one named workload through the simulator's
 * public API (Engine, PacketMill::grind, Engine::run and the read-only
 * accessors), checks every transmitted frame and the packet ledger,
 * and prints one JSON result line. See README.md in this directory.
 *
 *   pmbench --root DIR --workload NAME --seed N --seconds S --trace 0|1
 *           [--out DIR]
 *
 * --trace 0 reports the end-to-end metrics: it repeats fresh
 * engine builds and runs until S host seconds have passed, cycling
 * over kSubSeeds workload seeds derived from N, and reports medians.
 * --trace 1 reports the per-layer metrics from a fixed set of runs
 * (untraced, one host thread, short epochs, traced) and from
 * standalone host-time probes of single layers, repeated until S
 * seconds have passed, and writes its spans to --out.
 */

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/accounting/cycle_account.hh"
#include "src/elements/args.hh"
#include "src/framework/config_parser.hh"
#include "src/mem/cache.hh"
#include "src/mem/sim_memory.hh"
#include "src/mill/packet_mill.hh"
#include "src/net/flow.hh"
#include "src/net/packet_builder.hh"
#include "src/net/steering.hh"
#include "src/runtime/engine.hh"
#include "src/runtime/experiments.hh"
#include "src/table/cuckoo_hash.hh"
#include "src/table/lpm.hh"
#include "src/tracing/lifecycle.hh"
#include "src/tracing/tracer.hh"
#include "src/workload/workload.hh"

using namespace pmill;

namespace {

using Clock = std::chrono::steady_clock;

double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// @name Workloads (README.md says why each was chosen).
/// @{
struct WorkloadDef {
    const char *name;
    const char *config;  ///< Click config, relative to the repo root
    const char *spec;    ///< inline workload spec or spec file
    std::uint32_t cores;
    std::uint32_t host_threads;
    bool parking;        ///< MetadataModel::kParking instead of X-Change
    double offered_gbps; ///< open-loop offered load per NIC
};

constexpr WorkloadDef kWorkloads[] = {
    {"router-64b", "configs/router.click", "uniform:flows=1024,len=64", 1,
     1, false, 20.0},
    {"nat-zipf-1c", "configs/nat.click", "configs/workloads/zipf.workload",
     1, 1, false, 100.0},
    {"steer-park-8c", "configs/steered_router.click",
     "uniform:flows=65536,len=256", 8, 2, true, 100.0},
};
/// @}

/// Simulated run length: warm-up then the measured window.
constexpr double kWarmupUs = 1500.0;
constexpr double kDurationUs = 20000.0;
/// Workload seeds per --seed; sim_* metrics are medians over them.
constexpr std::uint32_t kSubSeeds = 3;
constexpr double kFreqGhz = 2.3;
/// Short epoch of the traced run's epoch check (default is 1 us).
constexpr double kShortEpochUs = 0.25;
/// Share of packets whose lifecycle the traced run records.
constexpr double kTraceSampleRate = 0.05;
/// Elements whose per-packet cost and tail share are reported.
const char *const kElements[] = {
    "class", "CheckIPHeader", "rt", "DecIPTTL", "Napt",
    "EtherRewrite", "output", "FlowSteer",
};

/** Metric label of an element: anonymous "Class@N" becomes "Class". */
std::string
element_label(const std::string &name)
{
    return name.substr(0, name.find('@'));
}

/** Workload seed k of benchmark seed @p seed (splitmix64, never 0). */
std::uint64_t
workload_seed(std::uint64_t seed, std::uint32_t k)
{
    std::uint64_t z = seed * kSubSeeds + k + 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return (z ^ (z >> 31)) | 1;
}

/// @name Output validation.
/// @{
std::uint32_t
be16(const std::uint8_t *p)
{
    return (std::uint32_t(p[0]) << 8) | p[1];
}

/** One's-complement sum of @p len bytes (odd tail padded). */
std::uint32_t
sum16(const std::uint8_t *p, std::uint32_t len, std::uint32_t acc = 0)
{
    std::uint32_t i = 0;
    for (; i + 1 < len; i += 2)
        acc += be16(p + i);
    if (i < len)
        acc += std::uint32_t(p[i]) << 8;
    return acc;
}

bool
folds_to_ffff(std::uint32_t acc)
{
    while (acc >> 16)
        acc = (acc & 0xFFFF) + (acc >> 16);
    return acc == 0xFFFF;
}

/** What every departing frame of a workload must look like. */
struct Expect {
    std::uint8_t src_mac[6] = {};
    std::uint8_t dst_mac[6] = {};
    std::uint8_t ttl = 0;
    bool nat = false;            ///< Napt in the config
    std::uint8_t nat_src[4] = {};
};

/** True when @p f (len @p len) is a valid output frame. */
bool
frame_ok(const Expect &e, const std::uint8_t *f, std::uint32_t len)
{
    constexpr std::uint32_t kEth = 14;
    if (len < kEth + 20)
        return false;
    if (std::memcmp(f, e.dst_mac, 6) != 0 ||
        std::memcmp(f + 6, e.src_mac, 6) != 0 || be16(f + 12) != 0x0800)
        return false;
    const std::uint8_t *ip = f + kEth;
    const std::uint32_t ihl = (ip[0] & 0x0F) * 4u;
    const std::uint32_t tot = be16(ip + 2);
    if ((ip[0] >> 4) != 4 || ihl < 20 || tot < ihl || kEth + tot > len)
        return false;
    if (!folds_to_ffff(sum16(ip, ihl)) || ip[8] != e.ttl)
        return false;
    if (!e.nat)
        return true;
    if (std::memcmp(ip + 12, e.nat_src, 4) != 0)
        return false;
    const std::uint8_t proto = ip[9];
    if (proto != kIpProtoTcp && proto != kIpProtoUdp)
        return false;
    const std::uint32_t l4len = tot - ihl;
    if (proto == kIpProtoUdp && be16(ip + ihl + 6) == 0)
        return true;  // UDP checksum not in use
    // Pseudo-header + segment must fold to 0xFFFF.
    std::uint32_t acc = sum16(ip + 12, 8);
    acc += proto + l4len;
    return folds_to_ffff(sum16(ip + ihl, l4len, acc));
}
/// @}

/** Config-derived facts the checks and probes need. */
struct ConfigInfo {
    std::string text;
    Expect expect;
    std::vector<Route> routes;  ///< every IPLookup route
};

bool
load_config(const std::string &path, ConfigInfo *out, std::string *err)
{
    std::ifstream in(path);
    if (!in) {
        *err = "cannot read " + path;
        return false;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    out->text = ss.str();
    ParsedGraph g;
    if (!parse_click_config(out->text, &g, err))
        return false;
    bool rewrite = false;
    for (const ParsedElement &el : g.elements) {
        if (el.class_name == "EtherRewrite") {
            for (const auto &[k, v] : parse_keywords(el.args)) {
                MacAddr m;
                if (!parse_mac(v, &m)) {
                    *err = "bad EtherRewrite MAC " + v;
                    return false;
                }
                std::memcpy(k == "SRC" ? out->expect.src_mac
                                       : out->expect.dst_mac,
                            m.bytes.data(), 6);
            }
            rewrite = true;
        } else if (el.class_name == "Napt") {
            for (const auto &[k, v] : parse_keywords(el.args)) {
                Ipv4Addr a;
                if (k == "SRCIP" && parse_ipv4(v, &a)) {
                    const std::uint32_t x = a.value;
                    const std::uint8_t b[4] = {
                        std::uint8_t(x >> 24), std::uint8_t(x >> 16),
                        std::uint8_t(x >> 8), std::uint8_t(x)};
                    std::memcpy(out->expect.nat_src, b, 4);
                    out->expect.nat = true;
                }
            }
            if (!out->expect.nat) {
                *err = "Napt without SRCIP";
                return false;
            }
        } else if (el.class_name == "IPLookup") {
            for (const std::string &a : el.args) {
                Route r;
                if (!parse_route(a, &r)) {
                    *err = "bad route " + a;
                    return false;
                }
                out->routes.push_back(r);
            }
        }
    }
    if (!rewrite || out->routes.empty()) {
        *err = path + " has no EtherRewrite or no IPLookup";
        return false;
    }
    // Generated frames carry FrameSpec's default TTL; DecIPTTL takes one.
    out->expect.ttl = static_cast<std::uint8_t>(FrameSpec{}.ttl - 1);
    return true;
}

/// @name Spans (traced run only): kept in memory, written at the end.
/// @{
struct Span {
    int parent;
    std::string name;
    double t0_s, t1_s;
};

class Spans {
  public:
    explicit Spans(bool on) : on_(on), t0_(Clock::now()) {}

    int
    open(const std::string &name, int parent)
    {
        if (!on_)
            return -1;
        spans_.push_back({parent, name, seconds_since(t0_), -1.0});
        return static_cast<int>(spans_.size()) - 1;
    }

    void
    close(int id)
    {
        if (id >= 0)
            spans_[static_cast<std::size_t>(id)].t1_s = seconds_since(t0_);
    }

    /** Self time of span @p id: duration minus its children's. */
    double self_s(std::size_t id) const;

    bool write(const std::string &path) const;

  private:
    bool on_;
    Clock::time_point t0_;
    std::vector<Span> spans_;
};

double
Spans::self_s(std::size_t id) const
{
    double s = spans_[id].t1_s - spans_[id].t0_s;
    for (const Span &c : spans_)
        if (c.parent == static_cast<int>(id))
            s -= c.t1_s - c.t0_s;
    return s;
}

bool
Spans::write(const std::string &path) const
{
    std::ofstream os(path);
    os << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "{\"id\":%zu,\"parent\":%d,\"name\":\"%s\","
                      "\"start_s\":%.9f,\"end_s\":%.9f,\"self_s\":%.9f}%s\n",
                      i, s.parent, s.name.c_str(), s.t0_s, s.t1_s,
                      self_s(i), i + 1 < spans_.size() ? "," : "");
        os << buf;
    }
    os << "]\n";
    return static_cast<bool>(os);
}
/// @}

/** Simulated outcome of one run; compared exactly across repeats. */
struct SimResult {
    double mpps = 0, gbps = 0, p50_us = 0, p99_us = 0, p999_us = 0;
    std::uint64_t tx_pkts = 0;   ///< delivered in the window
    std::uint64_t generated = 0; ///< whole run, all NICs
    std::uint64_t rx = 0, drops_no_desc = 0, drops_pcie = 0, tx = 0;
    std::uint64_t pipe_drops = 0;
    double busy_cycles = 0;      ///< ledger total minus idle, all cores

    bool
    operator==(const SimResult &o) const
    {
        return mpps == o.mpps && gbps == o.gbps && p50_us == o.p50_us &&
               p99_us == o.p99_us && p999_us == o.p999_us &&
               tx_pkts == o.tx_pkts && generated == o.generated &&
               rx == o.rx && drops_no_desc == o.drops_no_desc &&
               drops_pcie == o.drops_pcie && tx == o.tx &&
               pipe_drops == o.pipe_drops && busy_cycles == o.busy_cycles;
    }
};

/** Everything one engine build + run yields. */
struct Rep {
    SimResult sim;
    double engine_s = 0, grind_s = 0, run_s = 0;  ///< host seconds
    double check_s = 0;        ///< host seconds spent in the TX check
    std::uint64_t captured = 0, bad_frames = 0;
    std::uint64_t ledger_gap = 0;  ///< |generated - rx - drops|, per NIC
    RunResult r;
    std::unique_ptr<Engine> engine;  ///< kept only when asked for
};

struct RepOptions {
    std::uint32_t host_threads = 1;
    double epoch_us = 1.0;
    bool traced = false;
    bool keep_engine = false;
};

/**
 * Build, grind and run one engine on workload seed @p wseed. Every
 * frame departing in the measured window is checked; the registry's
 * latency histogram is emptied at the first measured departure so it
 * holds exactly the window's samples (RunResult has no p999).
 */
Rep
run_rep(const WorkloadDef &wd, const ConfigInfo &ci, WorkloadSpec spec,
        std::uint64_t wseed, const RepOptions &ro, Spans &spans, int parent)
{
    Rep rep;
    spec.seed = wseed;
    MachineConfig machine;
    machine.freq_ghz = kFreqGhz;
    machine.num_cores = wd.cores;
    PipelineOpts opts = opts_packetmill();
    if (wd.parking)
        opts.model = MetadataModel::kParking;

    int sp = spans.open("setup.engine", parent);
    auto t0 = Clock::now();
    auto engine = std::make_unique<Engine>(machine, ci.text, opts, spec);
    rep.engine_s = seconds_since(t0);
    spans.close(sp);

    sp = spans.open("setup.grind", parent);
    t0 = Clock::now();
    PacketMill::grind(*engine);
    rep.grind_s = seconds_since(t0);
    spans.close(sp);

    Histogram *lat = nullptr;
    for (const auto &h : engine->metrics().histograms())
        if (h.name == "latency_us")
            lat = h.hist.get();
    PMILL_ASSERT(lat != nullptr, "engine registers no latency_us histogram");

    engine->set_tx_capture([&](const std::uint8_t *f, std::uint32_t len) {
        const auto c0 = Clock::now();
        if (rep.captured++ == 0)
            lat->clear();
        if (!frame_ok(ci.expect, f, len))
            ++rep.bad_frames;
        rep.check_s += seconds_since(c0);
    });
    if (ro.traced) {
        // Enough ring for the whole window at this sampling rate, so the
        // tail attribution sees lifecycles from all of it.
        TracerConfig tc;
        tc.capacity = 1u << 20;
        tc.sample_rate = kTraceSampleRate;
        engine->enable_tracing(tc);
    }

    RunConfig rc;
    rc.offered_gbps = wd.offered_gbps;
    rc.warmup_us = kWarmupUs;
    rc.duration_us = kDurationUs;
    rc.latency_range_us = 20000.0;
    rc.sample_interval_us = 0;  // no in-run sampler: telemetry off
    rc.host_threads = ro.host_threads;
    rc.epoch_us = ro.epoch_us;

    sp = spans.open(ro.traced ? "run.traced" : "run", parent);
    t0 = Clock::now();
    rep.r = engine->run(rc);
    rep.run_s = seconds_since(t0) - rep.check_s;
    spans.close(sp);
    engine->set_tx_capture(nullptr);

    SimResult &s = rep.sim;
    s.mpps = rep.r.mpps;
    s.gbps = rep.r.throughput_gbps;
    s.p50_us = rep.r.median_latency_us;
    s.p99_us = rep.r.p99_latency_us;
    s.p999_us = lat->percentile(0.999);
    s.tx_pkts = rep.r.tx_pkts;
    for (std::uint32_t n = 0; engine->workload(n) != nullptr; ++n) {
        const std::uint64_t gen = engine->workload(n)->stats().frames;
        const NicStats ns = engine->nic(n).stats();
        const std::uint64_t in = ns.rx_frames + ns.rx_drops_no_desc +
                                 ns.rx_drops_pcie;
        rep.ledger_gap += gen > in ? gen - in : in - gen;
        s.generated += gen;
        s.rx += ns.rx_frames;
        s.drops_no_desc += ns.rx_drops_no_desc;
        s.drops_pcie += ns.rx_drops_pcie;
        s.tx += ns.tx_frames;
    }
    for (std::uint32_t c = 0; c < engine->num_cores(); ++c)
        s.pipe_drops += engine->pipeline(c).dropped();
    for (const auto &b : engine->acct_breakdown())
        s.busy_cycles += CycleAccount::cycles(b.delta.total -
                                              b.delta.scope_total(kAcctIdle));
    if (ro.keep_engine)
        rep.engine = std::move(engine);
    return rep;
}

double
median(std::vector<double> v)
{
    PMILL_ASSERT(!v.empty(), "median of nothing");
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Ordered name -> (value, unit) map printed as the metrics object. */
struct Metrics {
    std::vector<std::pair<std::string, std::pair<double, std::string>>> kv;

    void
    add(const std::string &name, double v, const char *unit)
    {
        kv.push_back({name, {v, unit}});
    }

    std::string
    json() const
    {
        std::string s = "{";
        for (std::size_t i = 0; i < kv.size(); ++i) {
            char buf[128];
            std::snprintf(buf, sizeof buf,
                          "\"value\": %.17g, \"unit\": \"%s\"}",
                          kv[i].second.first, kv[i].second.second.c_str());
            s += (i ? ", \"" : "\"") + kv[i].first + "\": {" + buf;
        }
        return s + "}";
    }
};

/** Totals the checks fold into the result line. */
struct Tally {
    std::uint64_t attempted = 0, failed = 0;
    bool correct = true;
    std::vector<std::string> problems;

    void
    fold(const Rep &rep)
    {
        attempted += rep.sim.generated;
        failed += rep.bad_frames + rep.ledger_gap;
        if (rep.bad_frames || rep.ledger_gap)
            fail("output check or packet ledger broken");
        if (rep.captured != rep.sim.tx_pkts)
            fail("TX check saw " + std::to_string(rep.captured) +
                 " frames, engine delivered " +
                 std::to_string(rep.sim.tx_pkts));
    }

    void
    fail(const std::string &why)
    {
        correct = false;
        problems.push_back(why);
    }
};

double
peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// @name Host-time probes of single layers (traced run).
/// @{
/** Frames of @p spec, stream 0, as the engine's NIC 0 would get them. */
double
probe_workload_ns(const WorkloadSpec &spec, std::uint64_t frames)
{
    WorkloadSource src(spec, 0);
    std::vector<std::uint8_t> buf(kMaxFrameLen);
    std::uint64_t sink = 0;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < frames; ++i) {
        double gap = 1.0;
        sink += src.next_frame(buf.data(), kMaxFrameLen, &gap);
    }
    const double s = seconds_since(t0);
    PMILL_ASSERT(sink > 0, "workload produced no bytes");
    return s * 1e9 / static_cast<double>(frames);
}

std::vector<FiveTuple>
workload_tuples(const WorkloadSpec &spec, std::uint64_t frames)
{
    WorkloadSource src(spec, 0);
    std::vector<std::uint8_t> buf(kMaxFrameLen);
    std::vector<FiveTuple> out;
    out.reserve(frames);
    for (std::uint64_t i = 0; i < frames; ++i) {
        double gap = 1.0;
        const std::uint32_t len =
            src.next_frame(buf.data(), kMaxFrameLen, &gap);
        out.push_back(extract_tuple(buf.data(), len));
    }
    return out;
}

/** Napt's access pattern: lookup, insert on miss (default capacity). */
double
probe_cuckoo_ns(const std::vector<FiveTuple> &tuples)
{
    SimMemory mem;
    CuckooHash<FiveTuple, std::uint64_t> table(mem, 65536);
    std::uint64_t hits = 0;
    const auto t0 = Clock::now();
    for (const FiveTuple &t : tuples) {
        if (table.lookup(t))
            ++hits;
        else
            table.insert(t, hits);
    }
    const double s = seconds_since(t0);
    return s * 1e9 / static_cast<double>(tuples.size());
}

/** Cache lines the hierarchy walked, as MemStats counts them. */
std::uint64_t
line_walks(const MemStats &m)
{
    return m.loads + m.stores + m.prefetches + m.dev_writes + m.dev_reads +
           m.park_fills + m.park_gathers;
}

/**
 * A standalone hierarchy walked by the address pattern of @p tuples:
 * frame DMA into a recycled RX ring of buffers (header only, payload
 * parked, under Parking), header load/store, a flow-table bucket load
 * when @p table, TX DMA read, and then loads to a small hot set
 * (descriptors, metadata, element state) until each frame has walked
 * @p lines_per_frame lines, the engine's own count. @return host ns
 * per line walk.
 */
double
probe_mem_ns(const std::vector<FiveTuple> &tuples, std::uint32_t len,
             bool table, bool parking, double lines_per_frame)
{
    CacheHierarchy ch{CacheConfig{}};
    constexpr Addr kBufBase = 1ull << 32, kTableBase = 2ull << 32,
                   kParkBase = 3ull << 32, kHotBase = 4ull << 32;
    // The bucket count is that of Napt's default-capacity cuckoo table.
    constexpr std::uint64_t kStride = 2048, kBuckets = 65536, kHotLines = 64;
    const std::uint64_t bufs = NicConfig{}.rx_ring_size;
    const std::uint32_t split = PipelineOpts{}.park_split_bytes;
    const std::uint32_t hdr = parking && len > split ? split : len;
    const std::uint32_t park = len - hdr;
    const double own = 2.0 * ((hdr + 63) / 64 + (park + 63) / 64) + 2 +
                       (table ? 1 : 0);
    const std::uint32_t hot = static_cast<std::uint32_t>(
        std::max(0.0, std::round(lines_per_frame - own)));
    std::uint64_t hot_i = 0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < tuples.size(); ++i) {
        const Addr buf = kBufBase + (i % bufs) * kStride;
        const Addr slot = kParkBase + (i % bufs) * kStride;
        ch.access(buf, hdr, AccessType::kDevWrite);
        if (park)
            ch.access(slot, park, AccessType::kParkWrite);
        ch.access(buf, 64, AccessType::kLoad);
        if (table)
            ch.access(kTableBase + mix64(rss_hash(tuples[i])) % kBuckets * 64,
                      64, AccessType::kLoad);
        ch.access(buf, 64, AccessType::kStore);
        ch.access(buf, hdr, AccessType::kDevRead);
        if (park)
            ch.access(slot, park, AccessType::kParkRead);
        for (std::uint32_t h = 0; h < hot; ++h)
            ch.access(kHotBase + (hot_i++ % kHotLines) * 64, 8,
                      AccessType::kLoad);
    }
    const double s = seconds_since(t0);
    return s * 1e9 / static_cast<double>(std::max<std::uint64_t>(
                         1, line_walks(ch.stats())));
}

double
probe_lpm_s(const std::vector<Route> &routes)
{
    const auto t0 = Clock::now();
    SimMemory mem;
    Dir24_8 lpm(mem);
    for (const Route &r : routes) {
        const bool added = lpm.add(r);
        PMILL_ASSERT(added, "route table full");
    }
    return seconds_since(t0);
}
/// @}

/** The per-layer metrics of the traced run. */
void
per_layer(const WorkloadDef &wd, const ConfigInfo &ci,
          const WorkloadSpec &spec, std::uint64_t seed,
          Clock::time_point deadline, Spans &spans, Metrics &m, Tally &tally)
{
    const std::uint64_t wseed = workload_seed(seed, 0);
    const int root = spans.open("bench.trace", -1);

    RepOptions base;
    base.host_threads = wd.host_threads;
    base.keep_engine = true;
    int sp = spans.open("rep.untraced", root);
    Rep rep = run_rep(wd, ci, spec, wseed, base, spans, sp);
    spans.close(sp);
    tally.fold(rep);
    Engine &e = *rep.engine;
    const RunResult &r = rep.r;
    const double pkts = std::max<double>(1.0, double(r.tx_pkts));
    auto per_pkt = [&](double v) { return v / pkts; };

    // accounting: ledger scopes and components over all cores.
    double scope[kAcctNumFixedScopes] = {};
    double comp[kAcctNumComponents] = {};
    std::vector<double> busy;
    for (const auto &b : e.acct_breakdown()) {
        for (std::uint16_t s = 0; s < kAcctNumFixedScopes; ++s)
            scope[s] += CycleAccount::cycles(b.delta.scope_total(s));
        for (std::uint32_t c = 0; c < kAcctNumComponents; ++c)
            comp[c] += CycleAccount::cycles(b.delta.component_total(c));
        const double tot = CycleAccount::cycles(b.delta.total);
        busy.push_back(tot > 0 ? 1.0 - CycleAccount::cycles(
                                           b.delta.scope_total(kAcctIdle)) /
                                           tot
                               : 0.0);
    }
    if (busy.empty())
        tally.fail("cycle accounting is compiled out");
    m.add("driver.rx_cyc_per_pkt", per_pkt(scope[kAcctDriverRx]), "cyc/pkt");
    m.add("driver.tx_cyc_per_pkt", per_pkt(scope[kAcctDriverTx]), "cyc/pkt");
    m.add("driver.mempool_cyc_per_pkt", per_pkt(scope[kAcctMempool]),
          "cyc/pkt");
    m.add("driver.metadata_cyc_per_pkt", per_pkt(scope[kAcctMetadata]),
          "cyc/pkt");
    m.add("framework.cyc_per_pkt", per_pkt(scope[kAcctFramework]),
          "cyc/pkt");
    m.add("accounting.cyc_per_pkt", per_pkt(rep.sim.busy_cycles), "cyc/pkt");
    m.add("mem.l1l2_cyc_per_pkt", per_pkt(comp[kAcctAccess]), "cyc/pkt");
    m.add("mem.llc_stall_cyc_per_pkt", per_pkt(comp[kAcctLlcStall]),
          "cyc/pkt");
    m.add("mem.dram_stall_cyc_per_pkt", per_pkt(comp[kAcctDramStall]),
          "cyc/pkt");
    m.add("mem.tlb_stall_cyc_per_pkt", per_pkt(comp[kAcctTlbStall]),
          "cyc/pkt");

    // runtime: how busy the cores were and how evenly loaded.
    double bsum = 0;
    for (double b : busy)
        bsum += b;
    m.add("runtime.busy_frac_min",
          busy.empty() ? 0 : *std::min_element(busy.begin(), busy.end()),
          "ratio");
    m.add("runtime.busy_frac_mean", busy.empty() ? 0 : bsum / busy.size(),
          "ratio");
    m.add("runtime.busy_frac_max",
          busy.empty() ? 0 : *std::max_element(busy.begin(), busy.end()),
          "ratio");
    double pmax = 0, psum = 0;
    for (std::uint32_t c = 0; c < e.num_cores(); ++c) {
        const double p = double(e.pipeline(c).forwarded() +
                                e.pipeline(c).dropped());
        pmax = std::max(pmax, p);
        psum += p;
    }
    m.add("runtime.core_skew", psum > 0 ? pmax / (psum / e.num_cores()) : 0,
          "ratio");

    // elements: per-element cost per delivered packet.
    const std::vector<std::string> labels = e.acct_scope_labels();
    const std::vector<ElementStats> es = e.element_stats();
    for (const char *name : kElements) {
        double cyc = 0, mem_ns = 0;
        for (std::size_t i = 0; i < es.size(); ++i)
            if (element_label(labels[kAcctNumFixedScopes + i]) == name) {
                cyc += es[i].cycles;
                mem_ns += es[i].mem_ns;
            }
        m.add(std::string("elements.") + name + ".cyc_per_pkt",
              per_pkt(cyc), "cyc/pkt");
        m.add(std::string("elements.") + name + ".mem_ns_per_pkt",
              per_pkt(mem_ns), "ns/pkt");
    }

    // mem: cache-model event counts.
    m.add("mem.llc_loads_per_pkt", per_pkt(double(r.mem.llc_loads())),
          "1/pkt");
    m.add("mem.llc_misses_per_pkt", per_pkt(double(r.mem.llc_load_misses)),
          "1/pkt");
    m.add("mem.tlb_misses_per_pkt", per_pkt(double(r.mem.tlb_misses)),
          "1/pkt");
    m.add("mem.dev_writes_per_pkt", per_pkt(double(r.mem.dev_writes)),
          "1/pkt");
    m.add("mem.park_fills_per_pkt", per_pkt(double(r.mem.park_fills)),
          "1/pkt");
    m.add("mem.park_gathers_per_pkt", per_pkt(double(r.mem.park_gathers)),
          "1/pkt");

    // table: flow tables of every core (0 where the NF keeps none).
    FlowTableStats ft;
    std::uint64_t flow_lookups = 0;
    for (std::uint32_t c = 0; c < e.num_cores(); ++c) {
        const std::vector<Element *> els = e.pipeline(c).elements();
        const std::vector<ElementStats> &ces =
            e.pipeline(c).element_stats();
        for (std::size_t i = 0; i < els.size(); ++i) {
            FlowTableStats s;
            if (!els[i]->flow_table_stats(&s))
                continue;
            ft.inserts += s.inserts;
            ft.displacements += s.displacements;
            ft.evictions += s.evictions;
            ft.failed_inserts += s.failed_inserts;
            ft.occupancy += s.occupancy;
            flow_lookups += ces[i].packets;
        }
    }
    m.add("table.inserts", double(ft.inserts), "count");
    m.add("table.displacements", double(ft.displacements), "count");
    m.add("table.evictions", double(ft.evictions), "count");
    m.add("table.failed_inserts", double(ft.failed_inserts), "count");
    m.add("table.occupancy", double(ft.occupancy), "count");

    // nic + net: packet ledger terms and steering.
    const SimResult &s = rep.sim;
    const double gen = std::max<double>(1.0, double(s.generated));
    m.add("nic.rx_drops_no_desc", double(s.drops_no_desc), "count");
    m.add("nic.rx_drops_pcie", double(s.drops_pcie), "count");
    m.add("nic.loss_frac", double(s.drops_no_desc + s.drops_pcie) / gen,
          "ratio");
    m.add("nic.in_flight_frac", (double(s.rx) - double(s.tx)) / gen, "ratio");
    SteerStats st;
    if (e.steering() != nullptr)
        st = e.steering()->stats();
    m.add("steer.steered", double(st.steered), "count");
    m.add("steer.delivered", double(st.delivered), "count");
    m.add("steer.stage_drops", double(st.stage_drops), "count");
    m.add("steer.ring_drops", double(st.ring_drops), "count");

    // Host speed of the whole run. Per layer rather than end to end:
    // on a shared host it swings by up to 2x for minutes at a time.
    m.add("runtime.host_sim_mpps", double(s.generated) / rep.run_s / 1e6,
          "Mframes/s");
    m.add("setup.engine_s", rep.engine_s, "s");
    m.add("setup.grind_s", rep.grind_s, "s");
    const std::uint64_t walks = line_walks(r.mem);
    rep.engine.reset();

    // runtime: 1 vs the workload's host threads, bit-identical results.
    RepOptions plain = base;
    plain.keep_engine = false;
    double run1_s = rep.run_s;  // 1-core engines always run one thread
    double speedup = 0;
    if (wd.host_threads > 1) {
        RepOptions one = plain;
        one.host_threads = 1;
        sp = spans.open("rep.threads_1", root);
        Rep orep = run_rep(wd, ci, spec, wseed, one, spans, sp);
        spans.close(sp);
        tally.fold(orep);
        if (!(orep.sim == rep.sim))
            tally.fail("host thread count changed simulated results");
        run1_s = orep.run_s;
        speedup = orep.run_s / rep.run_s;
    }
    m.add("runtime.thread_speedup", speedup, "ratio");

    // runtime: the epoch length must not change simulated delivery.
    RepOptions shortep = plain;
    shortep.epoch_us = kShortEpochUs;
    sp = spans.open("rep.epoch_0.25us", root);
    Rep erep = run_rep(wd, ci, spec, wseed, shortep, spans, sp);
    spans.close(sp);
    tally.fold(erep);
    m.add("runtime.epoch_mpps_ratio", erep.sim.mpps / rep.sim.mpps, "ratio");

    // tracing: the same run traced (tracing runs one host thread); the
    // simulated results must not move.
    RepOptions traced = base;
    traced.traced = true;
    traced.host_threads = 1;
    sp = spans.open("rep.traced", root);
    Rep trep = run_rep(wd, ci, spec, wseed, traced, spans, sp);
    spans.close(sp);
    tally.fold(trep);
    if (!(trep.sim == rep.sim))
        tally.fail("tracing changed simulated results");
    m.add("tracing.overhead_frac", trep.run_s / run1_s - 1.0, "ratio");
    const TailAttribution ta = trep.engine->tail_attribution();
    std::fprintf(stderr, "pmbench: tail attribution (%zu lifecycles, %zu "
                 "in the tail)\n%s", ta.num_complete, ta.num_tail,
                 ta.to_string().c_str());
    auto share = [&](const std::string &stage) {
        for (const auto &row : ta.rows)
            if (element_label(row.stage) == stage)
                return row.share_pct / 100.0;
        return 0.0;
    };
    m.add("tracing.p99_queue_wire_share", share("queue/wire"), "ratio");
    for (const char *name : kElements)
        m.add(std::string("tracing.p99_") + name + "_share", share(name),
              "ratio");
    trep.engine.reset();

    // Host probes, each outside the engine, repeated until the time is
    // up (medians reported) and scaled by the run's counts.
    const double run_ns = rep.run_s * 1e9;
    const double whole = (kWarmupUs + kDurationUs) / kDurationUs;
    WorkloadSpec ps = spec;
    ps.seed = wseed;
    const std::vector<FiveTuple> tuples = workload_tuples(
        ps, std::max<std::uint64_t>(1, s.generated / wd.cores));
    const std::uint32_t mean_len = static_cast<std::uint32_t>(std::max(
        64.0, r.goodput_gbps / 8.0 / std::max(r.mpps, 1e-9) * 1000.0));
    const double lines_per_frame = double(walks) * whole /
                                   std::max(1.0, double(s.generated));
    std::vector<double> wl_ns, tb_ns, mem_ns, lpm_s;
    do {
        sp = spans.open("probe.workload", root);
        wl_ns.push_back(probe_workload_ns(ps, s.generated));
        spans.close(sp);
        sp = spans.open("probe.table", root);
        tb_ns.push_back(probe_cuckoo_ns(tuples));
        spans.close(sp);
        sp = spans.open("probe.mem", root);
        mem_ns.push_back(probe_mem_ns(tuples, mean_len, ci.expect.nat,
                                      wd.parking, lines_per_frame));
        spans.close(sp);
        sp = spans.open("probe.lpm_setup", root);
        lpm_s.push_back(probe_lpm_s(ci.routes));
        spans.close(sp);
    } while (Clock::now() < deadline);
    m.add("workload.host_ns_per_frame", median(wl_ns), "ns");
    m.add("workload.host_share", median(wl_ns) * double(s.generated) / run_ns,
          "ratio");
    m.add("table.host_ns_per_lookup", median(tb_ns), "ns");
    m.add("table.host_share",
          median(tb_ns) * double(flow_lookups) * whole / run_ns, "ratio");
    m.add("mem.host_ns_per_access", median(mem_ns), "ns");
    m.add("mem.host_share", median(mem_ns) * double(walks) * whole / run_ns,
          "ratio");
    m.add("table.lpm_setup_s", median(lpm_s), "s");
    m.add("table.lpm_setup_share", median(lpm_s) * wd.cores / rep.engine_s,
          "ratio");
    spans.close(root);
}

struct Args {
    std::string root = ".", workload, out;
    std::uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
};

bool
parse_args(int argc, char **argv, Args *a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            return false;
        const std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--root") {
            a->root = v;
        } else if (k == "--workload") {
            a->workload = v;
        } else if (k == "--out") {
            a->out = v;
        } else if (k == "--seed") {
            a->seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0' || v[0] == '-')
                return false;
        } else if (k == "--seconds") {
            a->seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(a->seconds > 0))
                return false;
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                return false;
            a->trace = v == "1";
        } else {
            return false;
        }
    }
    return !a->workload.empty();
}

std::string
json_str(const std::string &s)
{
    std::string o = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            o += '\\';
        o += c;
    }
    return o + "\"";
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    if (!parse_args(argc, argv, &a)) {
        std::fprintf(stderr,
                     "usage: pmbench --workload NAME [--root DIR] "
                     "[--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n");
        return 2;
    }
    const WorkloadDef *wd = nullptr;
    for (const WorkloadDef &w : kWorkloads)
        if (a.workload == w.name)
            wd = &w;
    if (wd == nullptr) {
        std::fprintf(stderr, "pmbench: unknown workload '%s'\n",
                     a.workload.c_str());
        return 2;
    }

    std::string err;
    ConfigInfo ci;
    WorkloadSpec spec;
    const std::string spec_arg =
        std::strchr(wd->spec, ':') ? wd->spec : a.root + "/" + wd->spec;
    if (!load_config(a.root + "/" + wd->config, &ci, &err) ||
        !load_workload_spec(spec_arg, &spec, &err)) {
        std::fprintf(stderr, "pmbench: %s\n", err.c_str());
        return 1;
    }

    // Fixed mmap threshold: glibc otherwise raises it after the first
    // engine is freed, and later engines then reuse already-faulted
    // heap pages. Fixed, every engine pays its page faults, as the one
    // engine of a fresh process does.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);

    Tally tally;
    Metrics m;
    Spans spans(a.trace == 1);
    const auto start = Clock::now();

    if (a.trace == 0) {
        // Fresh engines until the time is up, at least twice per
        // workload seed so every seed's repeat is compared exactly.
        std::vector<SimResult> first(kSubSeeds);
        std::vector<double> setup;
        RepOptions ro;
        ro.host_threads = wd->host_threads;
        std::uint32_t reps = 0;
        while (reps < 2 * kSubSeeds || seconds_since(start) < a.seconds) {
            const std::uint32_t k = reps % kSubSeeds;
            Rep rep = run_rep(*wd, ci, spec, workload_seed(a.seed, k), ro,
                              spans, -1);
            tally.fold(rep);
            if (reps < kSubSeeds)
                first[k] = rep.sim;
            else if (!(rep.sim == first[k]))
                tally.fail("simulated results differ between repeats");
            std::fprintf(stderr,
                         "pmbench: rep %u seed#%u setup %.4f s run %.4f s "
                         "check %.4f s | %.6f Mpps p50 %.3f p99 %.3f "
                         "p999 %.3f us\n",
                         reps, k, rep.engine_s + rep.grind_s, rep.run_s,
                         rep.check_s, rep.sim.mpps, rep.sim.p50_us,
                         rep.sim.p99_us, rep.sim.p999_us);
            setup.push_back(rep.engine_s + rep.grind_s);
            ++reps;
        }
        auto sim_median = [&](auto field) {
            std::vector<double> v;
            for (const SimResult &s : first)
                v.push_back(field(s));
            return median(v);
        };
        m.add("sim_mpps", sim_median([](const SimResult &s) { return s.mpps; }),
              "Mpps");
        m.add("sim_gbps", sim_median([](const SimResult &s) { return s.gbps; }),
              "Gbps");
        m.add("sim_p50_us",
              sim_median([](const SimResult &s) { return s.p50_us; }), "us");
        m.add("sim_p99_us",
              sim_median([](const SimResult &s) { return s.p99_us; }), "us");
        m.add("sim_p999_us",
              sim_median([](const SimResult &s) { return s.p999_us; }), "us");
        m.add("sim_latency_samples",
              sim_median([](const SimResult &s) { return double(s.tx_pkts); }),
              "count");
        m.add("sim_delivered_frac", sim_median([](const SimResult &s) {
                  return double(s.tx) / double(std::max<std::uint64_t>(
                                            1, s.generated));
              }),
              "ratio");
        m.add("setup_s", median(setup), "s");
        m.add("peak_rss_mb", peak_rss_mb(), "MB");
    } else {
        const auto deadline =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(a.seconds));
        per_layer(*wd, ci, spec, a.seed, deadline, spans, m, tally);
    }

    // Manifest: what produced these numbers.
    std::string specs = "[";
    for (std::uint32_t k = 0; k < kSubSeeds; ++k) {
        WorkloadSpec s = spec;
        s.seed = workload_seed(a.seed, k);
        specs += (k ? "," : "") + json_str(s.to_string());
    }
    specs += "]";
    std::string manifest =
        "{\"type\": \"manifest\", \"workload\": " + json_str(wd->name) +
        ", \"config\": " + json_str(wd->config) +
        ", \"workload_specs\": " + specs +
        ", \"seed\": " + std::to_string(a.seed) +
        ", \"trace\": " + std::to_string(a.trace) +
        ", \"build_type\": " + json_str(PMBENCH_BUILD_TYPE) +
        ", \"pmill_trace\": " + (Tracer::kCompiledIn ? "true" : "false") +
        ", \"pmill_acct\": " + (CycleAccount::kCompiledIn ? "true" : "false") +
        ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
        ", \"cores\": " + std::to_string(wd->cores) +
        ", \"host_threads\": " + std::to_string(wd->host_threads) +
        ", \"model\": " + json_str(wd->parking ? "parking" : "xchange") +
        ", \"offered_gbps\": " + std::to_string(wd->offered_gbps) +
        ", \"warmup_us\": " + std::to_string(kWarmupUs) +
        ", \"duration_us\": " + std::to_string(kDurationUs) +
        ", \"wall_s\": " + std::to_string(seconds_since(start)) + "}";
    for (auto &[name, vu] : m.kv) {
        if (!std::isfinite(vu.first)) {
            tally.fail("metric " + name + " is not a finite number");
            vu.first = 0;
        }
    }
    for (const std::string &p : tally.problems)
        std::fprintf(stderr, "pmbench: FAIL: %s\n", p.c_str());
    if (!a.out.empty() && a.trace == 1) {
        const std::string path = a.out + "/spans-" + wd->name + "-seed" +
                                 std::to_string(a.seed) + ".json";
        if (!spans.write(path))
            std::fprintf(stderr, "pmbench: cannot write %s\n", path.c_str());
    }
    std::printf("%s\n", manifest.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                tally.correct ? "true" : "false",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed),
                m.json().c_str());
    return 0;
}
