/**
 * @file
 * End-to-end integration tests: full engine runs of the paper's NF
 * configurations across metadata models and optimization levels,
 * checking conservation of packets, functional transformations, and
 * the qualitative performance orderings the paper reports.
 */

#include <gtest/gtest.h>

#include "src/common/log.hh"
#include "src/elements/elements.hh"
#include "src/runtime/engine.hh"
#include "src/trace/trace.hh"

namespace pmill {
namespace {

const char *kForwarderConfig = R"(
// simple forwarder (paper §A.1)
input  :: FromDPDKDevice(PORT 0, N_QUEUES 1, BURST 32);
output :: ToDPDKDevice(PORT 0, BURST 32);
input -> EtherMirror -> output;
)";

const char *kRouterConfig = R"(
// standard router (paper §A.2, one rule per port)
input :: FromDPDKDevice(PORT 0, BURST 32);
output :: ToDPDKDevice(PORT 0, BURST 32);
class :: Classifier(ARP, IP);
rt :: IPLookup(20.0.0.0/8 0, 21.0.0.0/8 0, 22.0.0.0/8 0, 23.0.0.0/8 0,
               10.0.0.0/8 0, 0.0.0.0/0 0);
input -> class;
class [0] -> ARPResponder(10.0.0.1, 02:00:00:00:00:10) -> output;
class [1] -> CheckIPHeader -> rt;
rt -> DecIPTTL -> EtherRewrite(SRC 02:00:00:00:00:10, DST 02:00:00:00:00:20)
   -> output;
)";

MachineConfig
small_machine(double freq = 2.3)
{
    MachineConfig m;
    m.freq_ghz = freq;
    return m;
}

RunConfig
quick_run(double offered = 100.0)
{
    RunConfig rc;
    rc.offered_gbps = offered;
    rc.warmup_us = 300;
    rc.duration_us = 700;
    return rc;
}

TEST(EngineIntegration, ForwarderForwardsEverythingWhenUnderloaded)
{
    Trace t = make_fixed_size_trace(1024, 512);
    MachineConfig m = small_machine(3.0);
    RunConfig rc = quick_run(20.0);  // light load: no drops expected
    RunResult r =
        Engine(m, kForwarderConfig, PipelineOpts::vanilla(), t).run(rc);
    EXPECT_EQ(r.rx_drops, 0u);
    EXPECT_GT(r.tx_pkts, 1000u);
    EXPECT_NEAR(r.throughput_gbps, 20.0, 1.5);
    EXPECT_GT(r.median_latency_us, 0.0);
    EXPECT_LE(r.median_latency_us, 50.0);
}

TEST(EngineIntegration, ForwarderMirrorsMacs)
{
    Trace t = make_fixed_size_trace(128, 64);
    MachineConfig m = small_machine();
    Engine engine(m, kForwarderConfig, PipelineOpts::vanilla(), t);
    RunResult r = engine.run(quick_run(10.0));
    EXPECT_GT(r.tx_pkts, 0u);
    EXPECT_EQ(engine.pipeline().dropped(), 0u);
}

TEST(EngineIntegration, MetadataModelOrdering)
{
    // The paper's Fig. 5a: X-Change >= Overlaying >= Copying.
    Trace t = make_fixed_size_trace(1024, 512);
    MachineConfig m = small_machine(1.6);
    RunConfig rc = quick_run(100.0);

    PipelineOpts copy = PipelineOpts::vanilla();
    PipelineOpts overlay = copy;
    overlay.model = MetadataModel::kOverlaying;
    PipelineOpts xchg = copy;
    xchg.model = MetadataModel::kXchange;

    const double g_copy =
        Engine(m, kForwarderConfig, copy, t).run(rc).throughput_gbps;
    const double g_over =
        Engine(m, kForwarderConfig, overlay, t).run(rc).throughput_gbps;
    const double g_xchg =
        Engine(m, kForwarderConfig, xchg, t).run(rc).throughput_gbps;

    EXPECT_GT(g_over, g_copy * 1.02);
    EXPECT_GT(g_xchg, g_over * 1.02);
}

TEST(EngineIntegration, CodeOptimizationLadder)
{
    // The paper's Fig. 4 ordering: vanilla < devirt <= constants <
    // static graph <= all.
    Trace t = make_campus_trace({2048, 512, 7});
    MachineConfig m = small_machine(2.3);
    RunConfig rc = quick_run(100.0);

    PipelineOpts vanilla = PipelineOpts::vanilla();
    PipelineOpts devirt = vanilla;
    devirt.devirtualize = true;
    PipelineOpts constants = devirt;
    constants.constants = true;
    PipelineOpts graph = constants;
    graph.static_graph = true;

    const double g_v =
        Engine(m, kRouterConfig, vanilla, t).run(rc).throughput_gbps;
    const double g_d =
        Engine(m, kRouterConfig, devirt, t).run(rc).throughput_gbps;
    const double g_c =
        Engine(m, kRouterConfig, constants, t).run(rc).throughput_gbps;
    const double g_g =
        Engine(m, kRouterConfig, graph, t).run(rc).throughput_gbps;

    EXPECT_GT(g_d, g_v);
    EXPECT_GE(g_c, g_d * 0.995);
    EXPECT_GT(g_g, g_c * 1.02);
}

TEST(EngineIntegration, StaticGraphSlashesLlcMisses)
{
    Trace t = make_campus_trace({2048, 512, 7});
    MachineConfig m = small_machine(3.0);
    RunConfig rc = quick_run(100.0);

    PipelineOpts vanilla = PipelineOpts::vanilla();
    PipelineOpts graph = vanilla;
    graph.devirtualize = true;
    graph.constants = true;
    graph.static_graph = true;

    RunResult rv = Engine(m, kRouterConfig, vanilla, t).run(rc);
    RunResult rg = Engine(m, kRouterConfig, graph, t).run(rc);

    EXPECT_GT(rv.llc_kmisses_per_100ms, rg.llc_kmisses_per_100ms * 20.0)
        << "static graph should reduce LLC misses by orders of magnitude";
    EXPECT_GT(rg.ipc, rv.ipc);
}

TEST(EngineIntegration, RouterHandlesArpAndIp)
{
    CampusTraceConfig cfg;
    cfg.num_packets = 1024;
    cfg.frac_arp = 0.1;  // plenty of ARP
    Trace t = make_campus_trace(cfg);
    MachineConfig m = small_machine();
    Engine engine(m, kRouterConfig, PipelineOpts::vanilla(), t);
    RunResult r = engine.run(quick_run(10.0));
    EXPECT_GT(r.tx_pkts, 0u);
    // No packets should be dropped: ARP gets replies, IP is valid.
    EXPECT_EQ(engine.pipeline().dropped(), 0u);
}

TEST(EngineIntegration, OverloadCausesDropsNotCrashes)
{
    Trace t = make_fixed_size_trace(64, 256);
    MachineConfig m = small_machine(1.2);  // slow core
    RunConfig rc = quick_run(100.0);       // line-rate 64-B packets
    RunResult r =
        Engine(m, kForwarderConfig, PipelineOpts::vanilla(), t).run(rc);
    EXPECT_GT(r.rx_drops, 0u);
    EXPECT_GT(r.tx_pkts, 0u);
    // Throughput must stay below the offered load but positive.
    EXPECT_GT(r.throughput_gbps, 1.0);
    EXPECT_LT(r.throughput_gbps, 99.0);
}

TEST(EngineIntegration, LatencyGrowsWithLoad)
{
    Trace t = make_fixed_size_trace(1024, 512);
    MachineConfig m = small_machine(1.4);
    RunResult light = Engine(m, kForwarderConfig,
                             PipelineOpts::vanilla(), t).run(quick_run(10.0));
    RunResult heavy = Engine(m, kForwarderConfig,
                             PipelineOpts::vanilla(), t).run(quick_run(100.0));
    EXPECT_GT(heavy.p99_latency_us, light.p99_latency_us);
}

TEST(EngineIntegration, TwoNicsAggregateOnOneCore)
{
    Trace t = make_fixed_size_trace(1024, 512);
    MachineConfig m = small_machine(2.6);
    m.num_nics = 2;
    PipelineOpts xchg = PipelineOpts::packetmill();
    RunResult r = Engine(m, kForwarderConfig, xchg, t).run(quick_run(100.0));
    // Total throughput across both NICs can exceed one link's rate.
    EXPECT_GT(r.throughput_gbps, 100.0);
}

TEST(EngineIntegration, MulticoreNatScales)
{
    const char *nat_config = R"(
input :: FromDPDKDevice(PORT 0, BURST 32);
output :: ToDPDKDevice(PORT 0, BURST 32);
input -> CheckIPHeader -> Napt(SRCIP 100.0.0.1) -> output;
)";
    Trace t = make_campus_trace({4096, 1024, 11, 0.12, 0.0, 0.0});
    RunConfig rc = quick_run(100.0);

    MachineConfig m1 = small_machine(1.2);
    MachineConfig m2 = m1;
    m2.num_cores = 2;

    RunResult r1 =
        Engine(m1, nat_config, PipelineOpts::vanilla(), t).run(rc);
    RunResult r2 =
        Engine(m2, nat_config, PipelineOpts::vanilla(), t).run(rc);
    EXPECT_GT(r2.throughput_gbps, r1.throughput_gbps * 1.4)
        << "two cores should be meaningfully faster than one";
}

TEST(EngineIntegration, PacketMillBeatsVanillaOnRouter)
{
    Trace t = make_campus_trace({2048, 512, 7});
    MachineConfig m = small_machine(2.3);
    RunConfig rc = quick_run(100.0);
    RunResult v = Engine(m, kRouterConfig, PipelineOpts::vanilla(), t).run(rc);
    RunResult p = Engine(m, kRouterConfig,
                         PipelineOpts::packetmill(), t).run(rc);
    EXPECT_GT(p.throughput_gbps, v.throughput_gbps * 1.1);
    EXPECT_LT(p.median_latency_us, v.median_latency_us * 1.01);
}

} // namespace
} // namespace pmill
