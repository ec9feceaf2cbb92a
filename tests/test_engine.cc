/**
 * @file
 * Engine-level unit tests: run configuration details (generator
 * cutoff, TX capture, measurement windows), result bookkeeping, and
 * topology validation.
 */

#include <gtest/gtest.h>

#include "src/net/packet_builder.hh"
#include "src/runtime/engine.hh"
#include "src/runtime/experiments.hh"

namespace pmill {
namespace {

TEST(EngineRun, GeneratorStopDrainsEverything)
{
    Trace t = make_fixed_size_trace(512, 256, 32);
    MachineConfig m;
    m.freq_ghz = 3.0;
    Engine engine(m, forwarder_config(), PipelineOpts::vanilla(), t);

    RunConfig rc;
    rc.offered_gbps = 5.0;
    rc.warmup_us = 0;
    rc.duration_us = 400;
    rc.generator_stop_us = 300;
    engine.run(rc);

    const auto &s = engine.nic().stats();
    EXPECT_EQ(s.tx_frames, s.rx_frames)
        << "after the generator stops, the DUT must drain completely";
    EXPECT_GT(s.tx_frames, 100u);
}

TEST(EngineRun, TxCaptureSeesTransformedFrames)
{
    Trace t = make_fixed_size_trace(256, 128, 8);
    MachineConfig m;
    Engine engine(m, forwarder_config(), PipelineOpts::vanilla(), t);

    // The forwarder mirrors MACs: captured frames must have the
    // original src/dst swapped relative to the trace.
    const FiveTuple expect_tuple = extract_tuple(t.data(0), t.len(0));
    std::uint64_t captured = 0;
    bool swapped_ok = true;
    engine.set_tx_capture([&](const std::uint8_t *data, std::uint32_t len) {
        ++captured;
        FrameView v = parse_frame(const_cast<std::uint8_t *>(data), len);
        if (!v.eth)
            swapped_ok = false;
        (void)expect_tuple;
    });
    RunConfig rc;
    rc.offered_gbps = 5.0;
    rc.warmup_us = 0;
    rc.duration_us = 300;
    engine.run(rc);
    EXPECT_GT(captured, 50u);
    EXPECT_TRUE(swapped_ok);
}

TEST(EngineRun, ResultFieldsAreConsistent)
{
    Trace t = make_fixed_size_trace(1024, 512, 64);
    MachineConfig m;
    m.freq_ghz = 2.0;
    RunConfig rc;
    rc.offered_gbps = 40.0;
    rc.warmup_us = 200;
    rc.duration_us = 500;
    RunResult r = Engine(m, forwarder_config(),
                         PipelineOpts::vanilla(), t).run(rc);
    // Wire rate strictly exceeds goodput (framing overhead).
    EXPECT_GT(r.throughput_gbps, r.goodput_gbps);
    // Mpps consistent with goodput at 1024-B frames.
    EXPECT_NEAR(r.goodput_gbps, r.mpps * 1024 * 8 / 1000.0,
                r.goodput_gbps * 0.02);
    EXPECT_GT(r.duration_ns, 0.0);
    EXPECT_GT(r.exec.instructions, 0.0);
    EXPECT_GT(r.ipc, 0.0);
}

TEST(EngineRun, MultiNicMulticoreGrid)
{
    // 2 NICs x 2 cores: every NIC fans out over one queue per core,
    // so each core polls its queue on both devices and the engine
    // forwards traffic from both generators.
    Trace t = make_fixed_size_trace(256, 64);
    MachineConfig m;
    m.num_cores = 2;
    m.num_nics = 2;
    Engine engine(m, forwarder_config(), PipelineOpts::vanilla(), t);
    EXPECT_EQ(engine.num_cores(), 2u);
    RunConfig rc;
    rc.offered_gbps = 20.0;
    rc.warmup_us = 50.0;
    rc.duration_us = 200.0;
    rc.sample_interval_us = 0.0;
    RunResult r = engine.run(rc);
    EXPECT_GT(r.tx_pkts, 0u);
    EXPECT_GT(r.throughput_gbps, 0.0);
}

TEST(EngineRun, RejectsInvalidTopology)
{
    Trace t = make_fixed_size_trace(256, 64);
    MachineConfig m;
    m.num_cores = 2;
    m.num_sockets = 4;  // more sockets than cores is meaningless
    EXPECT_DEATH(
        {
            Engine engine(m, forwarder_config(), PipelineOpts::vanilla(),
                          t);
        },
        "num_sockets");
}

TEST(EngineRun, EmptyTraceRejected)
{
    Trace empty;
    MachineConfig m;
    EXPECT_DEATH(
        {
            Engine engine(m, forwarder_config(), PipelineOpts::vanilla(),
                          empty);
        },
        "nonempty");
}

TEST(EngineRun, PerNicOfferedLoadIsIndependent)
{
    // Two NICs at 40 G each: total TX should be ~80 G.
    Trace t = make_fixed_size_trace(1024, 512, 64);
    MachineConfig m;
    m.freq_ghz = 3.0;
    m.num_nics = 2;
    RunConfig rc;
    rc.offered_gbps = 40.0;
    rc.warmup_us = 200;
    rc.duration_us = 500;
    RunResult r = Engine(m, forwarder_config(),
                         PipelineOpts::packetmill(), t).run(rc);
    EXPECT_NEAR(r.throughput_gbps, 80.0, 4.0);
}

TEST(EngineRun, WorkPackageWarmupEstablishesResidency)
{
    // With warm_caches, a small scratch region should show ~zero LLC
    // misses from the very start of measurement.
    Trace t = make_fixed_size_trace(1024, 512, 64);
    MachineConfig m;
    RunConfig rc;
    rc.offered_gbps = 50.0;
    rc.warmup_us = 100;  // deliberately short
    rc.duration_us = 300;
    RunResult r = Engine(m, workpackage_config(2, 1, 0),
                         PipelineOpts::packetmill(), t).run(rc);
    EXPECT_LT(static_cast<double>(r.mem.llc_load_misses) /
                  static_cast<double>(r.tx_pkts),
              0.05);
}

TEST(EngineRun, AccessorBoundsAreChecked)
{
    // A 1-core / 1-NIC engine: any nonzero index is a caller bug and
    // must trip the bounds assert instead of indexing out of range.
    Trace t = make_fixed_size_trace(256, 64);
    MachineConfig m;
    Engine engine(m, forwarder_config(), PipelineOpts::vanilla(), t);
    ASSERT_EQ(engine.num_cores(), 1u);
    EXPECT_DEATH({ (void)engine.pipeline(1); }, "out of range");
    EXPECT_DEATH({ (void)engine.caches(2); }, "out of range");
    EXPECT_DEATH({ (void)engine.nic(3); }, "out of range");
}

TEST(EngineRun, LoadStepRaisesOfferedRate)
{
    // The offered rate must switch at warm_end + load_step_us: the
    // sampled throughput before the step sits near the low rate,
    // after it near the high rate.
    Trace t = make_fixed_size_trace(1024, 512, 64);
    MachineConfig m;
    Engine engine(m, forwarder_config(), PipelineOpts::packetmill(), t);
    RunConfig rc;
    rc.offered_gbps = 10.0;
    rc.warmup_us = 200;
    rc.duration_us = 1000;
    rc.sample_interval_us = 100;
    rc.load_step_us = 500;
    rc.load_step_gbps = 60.0;
    engine.run(rc);

    const Timeline &tl = engine.timeline();
    ASSERT_GE(tl.rows.size(), 10u);
    double pre = 0, post = 0;
    for (std::size_t i = 0; i < 4; ++i)
        pre += tl.value(i, "throughput_gbps") / 4.0;
    for (std::size_t i = 6; i < 10; ++i)
        post += tl.value(i, "throughput_gbps") / 4.0;
    EXPECT_NEAR(pre, 10.0, 3.0);
    EXPECT_NEAR(post, 60.0, 6.0);
}

// Per-NIC packet ledger on a workload engine: every frame the NIC's
// source generated was either received or counted as an RX drop, so
// the pacer neither loses nor duplicates a frame on either scheduler.
void
expect_ingress_ledger(Engine &engine, std::uint32_t nics)
{
    for (std::uint32_t n = 0; n < nics; ++n) {
        const NicStats s = engine.nic(n).stats();
        EXPECT_EQ(engine.workload(n)->stats().frames,
                  s.rx_frames + s.rx_drops_no_desc + s.rx_drops_pcie)
            << "nic" << n;
    }
    EXPECT_EQ(engine.workload(nics), nullptr);
}

TEST(EngineRun, IngressLedgerExactSerialOverload)
{
    WorkloadSpec spec;
    std::string err;
    ASSERT_TRUE(spec.parse("uniform:flows=4096,len=64", &err)) << err;
    MachineConfig m;
    m.num_nics = 2;
    Engine engine(m, router_config(), opts_packetmill(), spec);
    RunConfig rc;
    rc.offered_gbps = 100.0;
    rc.warmup_us = 50;
    rc.duration_us = 200;
    const RunResult r = engine.run(rc);
    EXPECT_GT(r.rx_drops, 0u) << "two 100G NICs must overload one core";
    expect_ingress_ledger(engine, 2);
}

TEST(EngineRun, IngressLedgerExactEpochScheduler)
{
    std::uint64_t frames[2] = {0, 0};
    for (std::uint32_t threads : {1u, 2u}) {
        WorkloadSpec spec;
        std::string err;
        ASSERT_TRUE(spec.parse("zipf:flows=65536,skew=1.1,burst=4", &err))
            << err;
        MachineConfig m;
        m.num_cores = 4;
        Engine engine(m, router_config(), opts_packetmill(), spec);
        RunConfig rc;
        rc.offered_gbps = 100.0;
        rc.warmup_us = 50;
        rc.duration_us = 200;
        rc.host_threads = threads;
        engine.run(rc);
        expect_ingress_ledger(engine, 1);
        frames[threads - 1] = engine.workload(0)->stats().frames;
    }
    EXPECT_GT(frames[0], 0u);
    EXPECT_EQ(frames[0], frames[1]);
}

} // namespace
} // namespace pmill
