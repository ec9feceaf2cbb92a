/**
 * @file
 * Workload-synthesis tests: Zipf/burst sampler statistics, spec
 * parsing, stream determinism, churn and hostile-mode semantics,
 * timer-wheel aging, and an engine-level smoke of the aged NAT under
 * synthesized traffic.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <vector>

#include "src/common/random.hh"
#include "src/net/packet_builder.hh"
#include "src/runtime/engine.hh"
#include "src/runtime/experiments.hh"
#include "src/table/timer_wheel.hh"
#include "src/workload/samplers.hh"
#include "src/workload/workload.hh"

namespace pmill {
namespace {

TEST(ZipfSampler, HeadMassAtSkew)
{
    // At s = 1.1 over 100k ranks, the hottest 1% of ranks should
    // carry the majority of the draws; under uniform they carry ~1%.
    const std::uint64_t n = 100000;
    const int draws = 200000;

    ZipfSampler zipf(n, 1.1);
    Xorshift64 rng(42);
    int hot = 0;
    for (int i = 0; i < draws; ++i)
        if (zipf.sample(rng) < n / 100)
            ++hot;
    EXPECT_GT(static_cast<double>(hot) / draws, 0.5);

    ZipfSampler flat(n, 0.0);
    Xorshift64 rng2(42);
    hot = 0;
    for (int i = 0; i < draws; ++i)
        if (flat.sample(rng2) < n / 100)
            ++hot;
    EXPECT_LT(static_cast<double>(hot) / draws, 0.03);
}

TEST(ZipfSampler, RanksInRangeAndRankedByMass)
{
    const std::uint64_t n = 1000;
    ZipfSampler zipf(n, 1.0);
    Xorshift64 rng(7);
    std::map<std::uint64_t, int> counts;
    for (int i = 0; i < 100000; ++i) {
        const std::uint64_t r = zipf.sample(rng);
        ASSERT_LT(r, n);
        ++counts[r];
    }
    // Rank 0 is the mode and the head ordering is monotone-ish; just
    // check the strong version on well-separated ranks.
    EXPECT_GT(counts[0], counts[9]);
    EXPECT_GT(counts[9], counts[99]);
    EXPECT_GT(counts[99], counts[999]);
}

TEST(ZipfSampler, DeterministicAcrossInstances)
{
    ZipfSampler a(50000, 1.2), b(50000, 1.2);
    Xorshift64 ra(123), rb(123);
    for (int i = 0; i < 10000; ++i)
        ASSERT_EQ(a.sample(ra), b.sample(rb));
}

TEST(BurstModulator, InactiveIsFreeAndUnit)
{
    BurstModulator m(1.0, 256.0);
    EXPECT_FALSE(m.active());
    Xorshift64 rng(9), untouched(9);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(m.next_gap_scale(rng), 1.0);
    // The inactive modulator must not consume randomness (the frame
    // stream would otherwise depend on whether bursts are configured).
    EXPECT_EQ(rng.next(), untouched.next());
}

TEST(BurstModulator, TwoPointSupportAndUnitMean)
{
    const double burst = 8.0;
    BurstModulator m(burst, 512.0);
    EXPECT_TRUE(m.active());
    Xorshift64 rng(17);
    const double gap_on = 1.0 / burst;
    const double gap_off = 2.0 - 1.0 / burst;
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double g = m.next_gap_scale(rng);
        ASSERT_TRUE(g == gap_on || g == gap_off) << g;
        sum += g;
    }
    // On/off dwells have equal mean packet counts, so the long-run
    // mean gap scale is (gap_on + gap_off) / 2 = 1.
    EXPECT_NEAR(sum / n, 1.0, 0.05);
}

TEST(WorkloadSpec, ParseAndRoundTrip)
{
    WorkloadSpec spec;
    std::string err;
    ASSERT_TRUE(spec.parse(
        "zipf:flows=1000000,skew=1.1,burst=8,phase=512,seed=3", &err))
        << err;
    EXPECT_EQ(spec.kind, WorkloadSpec::kZipf);
    EXPECT_EQ(spec.flows, 1000000u);
    EXPECT_DOUBLE_EQ(spec.skew, 1.1);
    EXPECT_DOUBLE_EQ(spec.burst, 8.0);
    EXPECT_EQ(spec.seed, 3u);

    // to_string() must round-trip to an identical spec.
    WorkloadSpec again;
    ASSERT_TRUE(again.parse(spec.to_string(), &err)) << err;
    EXPECT_EQ(again.to_string(), spec.to_string());

    // Bare kind names and kind= pairs both work; defaults per kind.
    WorkloadSpec flood;
    ASSERT_TRUE(flood.parse("synflood", &err)) << err;
    EXPECT_EQ(flood.kind, WorkloadSpec::kSynFlood);
    EXPECT_EQ(flood.flows, 1u << 20);
    WorkloadSpec churn;
    ASSERT_TRUE(churn.parse("kind=churn,victim=1.2.3.4", &err)) << err;
    EXPECT_EQ(churn.kind, WorkloadSpec::kChurn);
    EXPECT_GT(churn.flow_pkts, 0u);
    EXPECT_EQ(churn.victim.to_string(), "1.2.3.4");
}

TEST(WorkloadSpec, RejectsBadInput)
{
    WorkloadSpec spec;
    std::string err;
    EXPECT_FALSE(spec.parse("nosuchkind:flows=10", &err));
    EXPECT_FALSE(spec.parse("zipf:flows=0", &err));
    EXPECT_FALSE(spec.parse("zipf:flows=999999999999", &err));
    EXPECT_FALSE(spec.parse("uniform:len=30", &err));   // < 60 B frame
    EXPECT_FALSE(spec.parse("uniform:udp=1.5", &err));
    EXPECT_FALSE(spec.parse("uniform:bogus=1", &err));
    EXPECT_FALSE(spec.parse("uniform:vport=0", &err));
    EXPECT_FALSE(err.empty());
}

TEST(WorkloadSpec, RejectsNonFiniteAndOverflowingNumbers)
{
    for (const char *bad :
         {"zipf:skew=nan", "uniform:udp=nan", "uniform:burst=nan",
          "uniform:phase=inf", "zipf:flows=18446744073709551617",
          "uniform:seed=99999999999999999999999", "zipf:skew=0x1",
          "uniform:pkts=-1"}) {
        WorkloadSpec spec;
        std::string err;
        EXPECT_FALSE(spec.parse(bad, &err)) << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
    // The largest 64-bit seed still fits.
    WorkloadSpec spec;
    std::string err;
    ASSERT_TRUE(spec.parse("uniform:seed=18446744073709551615", &err))
        << err;
    EXPECT_EQ(spec.seed, 18446744073709551615ull);
}

TEST(WorkloadSpec, LoadsFromFile)
{
    const std::string path = ::testing::TempDir() + "/wl_test.workload";
    {
        std::ofstream f(path);
        f << "# a comment line\n"
          << "kind=zipf\n"
          << "flows=4096\n"
          << "skew=1.3\n";
    }
    WorkloadSpec spec;
    std::string err;
    ASSERT_TRUE(load_workload_spec(path, &spec, &err)) << err;
    EXPECT_EQ(spec.kind, WorkloadSpec::kZipf);
    EXPECT_EQ(spec.flows, 4096u);
    EXPECT_DOUBLE_EQ(spec.skew, 1.3);

    // Non-file arguments fall back to inline parsing.
    ASSERT_TRUE(load_workload_spec("uniform:flows=128", &spec, &err));
    EXPECT_EQ(spec.flows, 128u);
    EXPECT_FALSE(load_workload_spec("/no/such/file.workload:", &spec, &err));
}

TEST(WorkloadSource, SameSeedBitIdenticalStreams)
{
    WorkloadSpec spec;
    std::string err;
    ASSERT_TRUE(spec.parse("churn:flows=8192,pkts=16,burst=4,seed=11",
                           &err))
        << err;
    WorkloadSource a(spec), b(spec);
    std::uint8_t fa[kMaxFrameLen], fb[kMaxFrameLen];
    bool diverged_from_other_seed = false;
    spec.seed = 12;
    WorkloadSource c(spec);
    for (int i = 0; i < 5000; ++i) {
        double ga, gb, gc;
        const std::uint32_t la = a.next_frame(fa, sizeof(fa), &ga);
        const std::uint32_t lb = b.next_frame(fb, sizeof(fb), &gb);
        ASSERT_EQ(la, lb);
        ASSERT_EQ(ga, gb);
        ASSERT_EQ(std::memcmp(fa, fb, la), 0) << "frame " << i;
        std::uint8_t fc[kMaxFrameLen];
        const std::uint32_t lc = c.next_frame(fc, sizeof(fc), &gc);
        if (lc != la || std::memcmp(fa, fc, la < lc ? la : lc) != 0)
            diverged_from_other_seed = true;
    }
    EXPECT_TRUE(diverged_from_other_seed);
    EXPECT_EQ(a.stats().frames, b.stats().frames);
    EXPECT_EQ(a.stats().flows_born, b.stats().flows_born);
    EXPECT_EQ(a.stats().flows_died, b.stats().flows_died);
}

TEST(WorkloadSource, ChurnLifecycleMatchesSpec)
{
    WorkloadSpec spec;
    std::string err;
    ASSERT_TRUE(spec.parse("churn:flows=4096,pkts=16,seed=5", &err)) << err;
    WorkloadSource src(spec);
    std::uint8_t buf[kMaxFrameLen];
    double gap;
    const int frames = 200000;
    for (int i = 0; i < frames; ++i)
        src.next_frame(buf, sizeof(buf), &gap);

    const WorkloadStats &st = src.stats();
    EXPECT_EQ(st.frames, static_cast<std::uint64_t>(frames));
    EXPECT_GT(st.flows_born, 0u);
    EXPECT_GT(st.flows_died, 0u);
    // Births open with SYN; multi-packet TCP deaths close with FIN
    // (a one-packet flow dies on its SYN, so FINs <= deaths).
    EXPECT_EQ(st.syn_frames, st.flows_born);
    EXPECT_GT(st.fin_frames, 0u);
    EXPECT_LE(st.fin_frames, st.flows_died);
    // Mean packets per completed flow tracks the configured mean.
    const double mean_life =
        static_cast<double>(st.frames) / static_cast<double>(st.flows_died);
    EXPECT_GT(mean_life, 8.0);
    EXPECT_LT(mean_life, 32.0);
    // Per-flow state is 8 bytes per slot.
    EXPECT_EQ(src.state_bytes(), spec.flows * 8);
}

TEST(WorkloadSource, SynFloodIsAllSynsAtVictim)
{
    WorkloadSpec spec;
    std::string err;
    ASSERT_TRUE(
        spec.parse("synflood:flows=1024,victim=20.0.0.7,vport=443", &err))
        << err;
    WorkloadSource src(spec);
    std::uint8_t buf[kMaxFrameLen];
    double gap;
    std::set<std::uint32_t> sources;
    for (int i = 0; i < 20000; ++i) {
        const std::uint32_t len = src.next_frame(buf, sizeof(buf), &gap);
        FrameView v = parse_frame(buf, len);
        ASSERT_NE(v.tcp, nullptr);
        EXPECT_TRUE(v.tcp->syn());
        EXPECT_FALSE(v.tcp->ack());
        EXPECT_FALSE(v.tcp->fin());
        EXPECT_EQ(ntoh32(v.ip->dst_be), Ipv4Addr::make(20, 0, 0, 7).value);
        EXPECT_EQ(ntoh16(v.tcp->dst_port_be), 443);
        sources.insert(ntoh32(v.ip->src_be));
    }
    // Spoofed sources are drawn from a bounded universe, not 2^32.
    EXPECT_GT(sources.size(), 500u);
    EXPECT_LE(sources.size(), 1024u);
    EXPECT_EQ(src.stats().syn_frames, src.stats().frames);
    EXPECT_EQ(src.stats().fin_frames, 0u);
}

TEST(WorkloadSource, PortScanSweepsPorts)
{
    WorkloadSpec spec;
    std::string err;
    ASSERT_TRUE(spec.parse("portscan:victim=20.0.0.50", &err)) << err;
    WorkloadSource src(spec);
    std::uint8_t buf[kMaxFrameLen];
    double gap;
    std::set<std::uint16_t> ports;
    std::uint32_t attacker = 0;
    for (int i = 0; i < 5000; ++i) {
        const std::uint32_t len = src.next_frame(buf, sizeof(buf), &gap);
        FrameView v = parse_frame(buf, len);
        ASSERT_NE(v.tcp, nullptr);
        EXPECT_TRUE(v.tcp->syn());
        if (i == 0)
            attacker = ntoh32(v.ip->src_be);
        // Single attacker, sweeping destination ports.
        EXPECT_EQ(ntoh32(v.ip->src_be), attacker);
        ports.insert(ntoh16(v.tcp->dst_port_be));
    }
    // Every probe so far hit a distinct port (sweep wraps at 65535).
    EXPECT_EQ(ports.size(), 5000u);
    EXPECT_EQ(ports.count(0), 0u);  // port 0 never probed
}

TEST(TimerWheel, FiresAndRearms)
{
    TimerWheel<int> wheel(100.0, 16);
    std::vector<int> fired;
    wheel.schedule(1, 250.0);
    wheel.schedule(2, 450.0);

    // Nothing before the deadline slot closes.
    wheel.advance(200.0, [&](int k, TimeNs) -> TimeNs {
        fired.push_back(k);
        return 0;
    });
    EXPECT_TRUE(fired.empty());

    // Key 1 fires once its slot has fully elapsed; re-arm it once.
    int rearms = 0;
    wheel.advance(700.0, [&](int k, TimeNs) -> TimeNs {
        fired.push_back(k);
        if (k == 1 && rearms++ == 0)
            return 900.0;  // re-arm -> fires again later
        return 0;
    });
    ASSERT_EQ(fired.size(), 2u);
    EXPECT_EQ(fired[0], 1);
    EXPECT_EQ(fired[1], 2);

    wheel.advance(1200.0, [&](int k, TimeNs) -> TimeNs {
        fired.push_back(k);
        return 0;
    });
    ASSERT_EQ(fired.size(), 3u);
    EXPECT_EQ(fired[2], 1);
}

TEST(TimerWheel, OverdueDeadlineFiresOnNextAdvance)
{
    TimerWheel<int> wheel(100.0, 8);
    wheel.advance(1000.0, [](int, TimeNs) -> TimeNs { return 0; });
    // Scheduling in the past must not be lost.
    wheel.schedule(7, 50.0);
    int fired = 0;
    wheel.advance(1300.0, [&](int k, TimeNs) -> TimeNs {
        EXPECT_EQ(k, 7);
        ++fired;
        return 0;
    });
    EXPECT_EQ(fired, 1);
}

TEST(EngineWorkload, AgedNatBoundsStateDeterministically)
{
    WorkloadSpec spec;
    std::string err;
    ASSERT_TRUE(spec.parse("churn:flows=16384,pkts=24,seed=2", &err)) << err;

    MachineConfig m;
    const std::string config = nat_aging_config(32, 4096, 0.5);

    RunConfig rc;
    rc.offered_gbps = 10.0;
    rc.warmup_us = 200;
    rc.duration_us = 1500;

    auto run_once = [&](RunResult *out) {
        Engine engine(m, config, PipelineOpts::vanilla(), spec);
        *out = engine.run(rc);
        std::uint64_t occupancy = 0, capacity = 0, evictions = 0;
        for (Element *e : engine.pipeline(0).elements()) {
            FlowTableStats st;
            if (!e->flow_table_stats(&st))
                continue;
            occupancy += st.occupancy;
            capacity += st.capacity;
            evictions += st.evictions;
        }
        EXPECT_GT(capacity, 0u);
        EXPECT_LE(occupancy, capacity);
        // Churned flows idle out: aging must actually evict.
        EXPECT_GT(evictions, 0u);
        EXPECT_GT(engine.workload(0)->stats().flows_born, 0u);
        return occupancy;
    };

    RunResult r1, r2;
    const std::uint64_t occ1 = run_once(&r1);
    const std::uint64_t occ2 = run_once(&r2);
    // Same seed, same spec: bit-identical simulation.
    EXPECT_EQ(r1.tx_pkts, r2.tx_pkts);
    EXPECT_EQ(r1.median_latency_us, r2.median_latency_us);
    EXPECT_EQ(r1.p99_latency_us, r2.p99_latency_us);
    EXPECT_EQ(occ1, occ2);
    EXPECT_GT(r1.tx_pkts, 500u);
}

} // namespace
} // namespace pmill
