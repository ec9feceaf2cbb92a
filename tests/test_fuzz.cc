/**
 * @file
 * Robustness fuzzing: the configuration parser, frame parser, argv
 * parser, workload specs, JSONL artifact loaders and pipeline builder
 * must never crash on malformed input — they must either succeed or
 * fail cleanly with an error.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "src/accounting/acct_report.hh"
#include "src/common/cli.hh"
#include "src/common/json.hh"
#include "src/common/random.hh"
#include "src/framework/config_parser.hh"
#include "src/framework/pipeline.hh"
#include "src/mill/profile.hh"
#include "src/net/packet_builder.hh"
#include "src/runtime/experiments.hh"
#include "src/telemetry/bench_diff.hh"
#include "src/workload/workload.hh"

namespace pmill {
namespace {

TEST(FuzzConfigParser, RandomBytesNeverCrash)
{
    Xorshift64 rng(0xF022);
    const char alphabet[] =
        "abcXYZ0123 ::->[](),;/*\n\t_@#$%FromDPDKDevice";
    for (int iter = 0; iter < 2000; ++iter) {
        std::string input;
        const std::size_t len = rng.next_below(200);
        for (std::size_t i = 0; i < len; ++i)
            input += alphabet[rng.next_below(sizeof(alphabet) - 1)];
        ParsedGraph g;
        std::string err;
        // Must not crash; result may be either.
        (void)parse_click_config(input, &g, &err);
    }
    SUCCEED();
}

TEST(FuzzConfigParser, MutatedValidConfigsNeverCrash)
{
    const std::string base = router_config();
    Xorshift64 rng(0xBEEF);
    for (int iter = 0; iter < 2000; ++iter) {
        std::string mutated = base;
        const int flips = 1 + static_cast<int>(rng.next_below(8));
        for (int f = 0; f < flips; ++f) {
            const std::size_t pos = rng.next_below(mutated.size());
            switch (rng.next_below(3)) {
              case 0:
                mutated[pos] = static_cast<char>(
                    32 + rng.next_below(95));
                break;
              case 1:
                mutated.erase(pos, 1);
                break;
              default:
                mutated.insert(pos, 1,
                               static_cast<char>(32 + rng.next_below(95)));
            }
        }
        ParsedGraph g;
        std::string err;
        (void)parse_click_config(mutated, &g, &err);
    }
    SUCCEED();
}

TEST(FuzzPipelineBuild, ParsableGarbageFailsCleanly)
{
    // Configurations that parse but are semantically broken must be
    // rejected with an error message, not crash.
    const char *cases[] = {
        "a :: FromDPDKDevice(PORT 0);",              // unconnected
        "a :: Discard; b :: Discard; a -> b;",       // no source
        "a :: FromDPDKDevice(PORT 0); a -> Unknown;",
        "a :: FromDPDKDevice(BURST 0); a -> Discard;",
        "a :: FromDPDKDevice(PORT 0); a -> IPLookup -> Discard;",
        "a :: FromDPDKDevice(PORT 0); a -> EtherRewrite(SRC zz) "
        "-> Discard;",
        "a :: FromDPDKDevice(PORT 0); a -> Napt -> Discard;",
        "a :: FromDPDKDevice(PORT 0); a -> Classifier() -> Discard;",
    };
    for (const char *c : cases) {
        SimMemory mem;
        std::string err;
        auto p = Pipeline::build(c, mem, PipelineOpts::vanilla(), &err);
        EXPECT_EQ(p, nullptr) << c;
        EXPECT_FALSE(err.empty()) << c;
    }
}

TEST(FuzzFrameParser, RandomBytesNeverCrash)
{
    Xorshift64 rng(0xDEAD);
    std::vector<std::uint8_t> buf(2048);
    for (int iter = 0; iter < 5000; ++iter) {
        const std::uint32_t len =
            static_cast<std::uint32_t>(rng.next_below(1515));
        for (std::uint32_t i = 0; i < len; ++i)
            buf[i] = static_cast<std::uint8_t>(rng.next());
        (void)parse_frame(buf.data(), len);
        (void)extract_tuple(buf.data(), len);
    }
    SUCCEED();
}

TEST(FuzzFrameParser, TruncationSweepOnValidFrame)
{
    FrameSpec spec;
    spec.frame_len = 200;
    auto frame = build_frame(spec);
    for (std::uint32_t len = 0; len <= frame.size(); ++len) {
        FrameView v = parse_frame(frame.data(), len);
        // Layer pointers are only set when the layer fully fits.
        if (v.ip)
            ASSERT_GE(len, kEtherHeaderLen + kIpv4HeaderLen);
        if (v.tcp)
            ASSERT_GE(len,
                      kEtherHeaderLen + kIpv4HeaderLen + sizeof(TcpHeader));
    }
}

TEST(FuzzEngine, MalformedTrafficFlowsThroughTheRouter)
{
    // A trace of random garbage frames: the router must classify,
    // drop, or forward without crashing or leaking buffers.
    Trace t;
    Xorshift64 rng(77);
    for (int i = 0; i < 256; ++i) {
        std::vector<std::uint8_t> frame(64 + rng.next_below(1400));
        for (auto &b : frame)
            b = static_cast<std::uint8_t>(rng.next());
        t.add(frame);
    }
    MachineConfig m;
    Engine engine(m, router_config(), PipelineOpts::vanilla(), t);
    RunConfig rc;
    rc.offered_gbps = 20;
    rc.warmup_us = 100;
    rc.duration_us = 300;
    RunResult r = engine.run(rc);
    // Everything is classifier-dropped or ARP-dropped; nothing crashes.
    EXPECT_GE(engine.pipeline().dropped(), 1u);
    (void)r;
}

TEST(FuzzCli, RandomArgvFailsCleanly)
{
    // Argv built from the table's own spellings, '=', and random
    // tokens: every parse ends in help, an error message, or a result
    // with exactly the declared positionals — never an abort.
    bool sw = false;
    std::string str, choice = "a";
    std::uint32_t u = 7;
    double d = 1.0;
    const CliSpec spec{"fuzz", {"<in>", "<out>"}, {
        {"--switch", "", "a switch", &sw, "-s"},
        {"--str", "S", "a string", &str},
        {"--u32", "N", "an integer", CliFlag::U32{&u, 2, 100}, "-n"},
        {"--dbl", "X", "a number",
         CliFlag::Double{.out = &d, .lo = 0, .hi = 1, .lo_open = true}},
        {"--choice", "C", "a choice", CliFlag::Choice{&choice, {"a", "bc"}}},
    }};
    const char *pieces[] = {
        "--switch", "-s", "--str", "--u32", "-n", "--dbl", "--choice",
        "--help", "-h", "-", "--", "=", "", "0", "1", "0.5", "100", "101",
        "-1", "1e999", "nan", "inf", "5x", "a", "bc", "x", " ", "--u",
        "\xff", "=5", "--u32=", "--dbl=0x1p-1"};
    const char alphabet[] = "-=01239.eanfx+ s";
    Xorshift64 rng(0xC11);
    int helps = 0, errors = 0, oks = 0;
    for (int iter = 0; iter < 5000; ++iter) {
        std::vector<std::string> toks{"fuzz"};
        const std::size_t n = rng.next_below(7);
        for (std::size_t i = 0; i < n; ++i) {
            std::string t;
            const int parts = 1 + static_cast<int>(rng.next_below(3));
            for (int p = 0; p < parts; ++p) {
                if (rng.next_below(4) == 0) {
                    for (std::size_t c = rng.next_below(5); c > 0; --c)
                        t += alphabet[rng.next_below(sizeof(alphabet) - 1)];
                } else {
                    t += pieces[rng.next_below(std::size(pieces))];
                }
            }
            toks.push_back(t);
        }
        std::vector<const char *> argv;
        for (const std::string &t : toks)
            argv.push_back(t.c_str());
        const CliResult r =
            cli_parse(spec, static_cast<int>(argv.size()), argv.data());
        if (r.help) {
            EXPECT_TRUE(r.ok());
            ++helps;
        } else if (!r.ok()) {
            ++errors;
        } else {
            EXPECT_EQ(r.positionals.size(), 2u);
            ++oks;
        }
        // Whatever happened, the targets hold in-range values.
        EXPECT_GE(u, 2u);
        EXPECT_LE(u, 100u);
        EXPECT_GT(d, 0.0);
        EXPECT_LE(d, 1.0);
        EXPECT_TRUE(choice == "a" || choice == "bc");
    }
    // The generator reaches every outcome.
    EXPECT_GT(helps, 0);
    EXPECT_GT(errors, 0);
    EXPECT_GT(oks, 0);
}

TEST(FuzzWorkloadSpec, RandomSpecsFailCleanly)
{
    // Specs built from the number grammar's edge cases: every accepted
    // spec holds finite, in-range fields; every rejected one says why.
    const char *kinds[] = {"",          "uniform:",  "zipf:",  "churn:",
                           "synflood:", "portscan:", "bogus:"};
    const char *keys[] = {"kind",  "flows", "skew", "pkts",   "len",
                          "udp",   "burst", "phase", "seed",  "victim",
                          "vport", "bogus", ""};
    const char *values[] = {
        "0",     "1",      "2",   "+3",  "60",   "1514",  "1000",
        "1001",  "4",      "4.5", "0.5", "1e-1", "1e3",   "-1",
        "-0",    "nan",    "inf", "-inf", "0x10", "1e999", "1.2.3.4",
        "18446744073709551615", "18446744073709551617", "67108864",
        "67108865", "zipf", "synflood", "", " 1", "1x", "."};
    Xorshift64 rng(0x5BEC);
    int accepted = 0, rejected = 0;
    for (int iter = 0; iter < 5000; ++iter) {
        std::string text = kinds[rng.next_below(std::size(kinds))];
        const std::size_t n = rng.next_below(4);
        for (std::size_t i = 0; i < n; ++i) {
            text += i ? "," : "";
            text += keys[rng.next_below(std::size(keys))];
            text += "=";
            text += values[rng.next_below(std::size(values))];
        }
        WorkloadSpec spec;
        std::string err;
        if (!spec.parse(text, &err)) {
            EXPECT_FALSE(err.empty()) << text;
            ++rejected;
            continue;
        }
        ++accepted;
        EXPECT_GE(spec.flows, 1u) << text;
        EXPECT_LE(spec.flows, 1ull << 26) << text;
        EXPECT_TRUE(std::isfinite(spec.skew) && spec.skew >= 0 &&
                    spec.skew <= 4)
            << text;
        EXPECT_TRUE(std::isfinite(spec.udp_frac) && spec.udp_frac >= 0 &&
                    spec.udp_frac <= 1)
            << text;
        EXPECT_TRUE(std::isfinite(spec.burst) && spec.burst >= 1 &&
                    spec.burst <= 1000)
            << text;
        EXPECT_TRUE(std::isfinite(spec.phase_pkts) && spec.phase_pkts >= 2)
            << text;
        EXPECT_TRUE(spec.frame_len == 0 || (spec.frame_len >= kMinFrameLen &&
                                            spec.frame_len <= kMaxFrameLen))
            << text;
        EXPECT_GE(spec.victim_port, 1u) << text;
    }
    EXPECT_GT(accepted, 0);
    EXPECT_GT(rejected, 0);
}

/** @p text with 1-8 random edits biased toward JSON syntax and numbers. */
std::string
mutate_jsonl(const std::string &text, Xorshift64 &rng)
{
    static const char *const pieces[] = {
        "{", "}", "[", "]", ":", ",", "\"", "\\", "\\u", "\\u00", "\n",
        " ", "0", "9", "-", "+", ".", "e", "e999", "nan", "inf", "0x1",
        "true", "null", "99999999999999999999", "\xff"};
    std::string m = text;
    const int edits = 1 + static_cast<int>(rng.next_below(8));
    for (int e = 0; e < edits && !m.empty(); ++e) {
        const std::size_t pos = rng.next_below(m.size());
        switch (rng.next_below(3)) {
          case 0:
            m[pos] = static_cast<char>(32 + rng.next_below(95));
            break;
          case 1:
            m.erase(pos, 1 + rng.next_below(4));
            break;
          default:
            m.insert(pos, pieces[rng.next_below(std::size(pieces))]);
        }
    }
    return m;
}

TEST(FuzzJsonl, MutatedArtifactsFailCleanly)
{
    // Real emitter output, mutated: every loader either accepts it
    // with finite values or fails with a message. Never a crash.
    Profile prof;
    prof.freq_ghz = 2.3;
    prof.burst = 32;
    prof.model = "X-Change";
    prof.burst_hist = {0, 4, 2};
    ProfileElement pe;
    pe.name = "rt";
    pe.class_name = "IPLookup";
    pe.packets = 5;
    pe.cycles = 7.5;
    pe.rule_hits = {3, 0, 9};
    prof.elements = {pe, pe};

    AcctBucketRow row;
    row.label = "framework";
    row.comp[kAcctCompute] = 1.5;
    row.total = 1.5;
    AcctReport acct;
    acct.aggregate.rows = {row, row};
    acct.cores.resize(2);
    acct.cores[1].rows = {row};
    std::ostringstream acct_os;
    acct_write_jsonl(acct, acct_os);

    std::ostringstream bench_os;
    bench_os << JsonRecord()
                    .str("type", "meta")
                    .str("bench", "b")
                    .str("title", "T")
                    .strs("columns", {"Thr(Gbps)", "label"});
    bench_os << JsonRecord().str("type", "row").cell("Thr(Gbps)", "4.5").cell(
        "label", "x");

    const std::string bench_path = "fuzz_jsonl_bench.json";
    Xorshift64 rng(0x750A);
    int loads = 0, failures = 0;
    for (int iter = 0; iter < 1500; ++iter) {
        const std::string p = mutate_jsonl(prof.to_json(), rng);
        Profile back;
        std::string err;
        if (Profile::parse(p, &back, &err)) {
            ++loads;
            EXPECT_TRUE(std::isfinite(back.freq_ghz) &&
                        std::isfinite(back.stall_share))
                << p;
            for (const ProfileElement &e : back.elements)
                EXPECT_TRUE(std::isfinite(e.cycles) &&
                            std::isfinite(e.time_share))
                    << p;
            (void)PlanSearch::search(back, PipelineOpts::vanilla());
        } else {
            ++failures;
            EXPECT_FALSE(err.empty()) << p;
        }

        std::istringstream a(mutate_jsonl(acct_os.str(), rng));
        AcctReport rep;
        err.clear();
        if (acct_report_from_jsonl(a, &rep, &err)) {
            ++loads;
            EXPECT_TRUE(std::isfinite(rep.aggregate.total_cycles));
            std::ostringstream rendered;
            acct_render_report(rep, rendered);
        } else {
            ++failures;
            EXPECT_FALSE(err.empty()) << a.str();
        }

        const std::string b = mutate_jsonl(bench_os.str(), rng);
        std::ofstream(bench_path) << b;
        BenchTable tab;
        err.clear();
        if (load_bench_table(bench_path, &tab, &err)) {
            ++loads;
        } else {
            ++failures;
            EXPECT_FALSE(err.empty()) << b;
        }

        // The reader alone, line by line.
        std::istringstream lines(b + p + a.str());
        for (std::string line; std::getline(lines, line);) {
            std::map<std::string, std::string> obj;
            err.clear();
            if (!parse_json_object_line(line, &obj, &err)) {
                EXPECT_FALSE(err.empty()) << line;
            }
        }
    }
    std::remove(bench_path.c_str());
    // The mutations reach both outcomes.
    EXPECT_GT(loads, 0);
    EXPECT_GT(failures, 0);
}

} // namespace
} // namespace pmill
