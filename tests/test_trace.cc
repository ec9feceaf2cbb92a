/**
 * @file
 * Tests for the stored trace, its replay and the traffic generators.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "src/net/checksum.hh"
#include "src/net/packet_builder.hh"
#include "src/trace/trace.hh"

namespace pmill {
namespace {

TEST(Trace, AddAndAccess)
{
    Trace t;
    std::vector<std::uint8_t> a(64, 0xAA), b(128, 0xBB);
    t.add(a);
    t.add(b);
    ASSERT_EQ(t.size(), 2u);
    EXPECT_EQ(t.len(0), 64u);
    EXPECT_EQ(t.len(1), 128u);
    EXPECT_EQ(t.data(1)[0], 0xBB);
    EXPECT_EQ(t.total_bytes(), 192u);
    EXPECT_DOUBLE_EQ(t.mean_len(), 96.0);
}

TEST(Trace, AddRejectsBadLengths)
{
    Trace t;
    std::vector<std::uint8_t> big(kMaxFrameLen + 1, 0);
    EXPECT_DEATH(t.add(big.data(), 0), "outside");
    EXPECT_DEATH(t.add(big), "outside");
}

TEST(TraceReplay, CyclesThroughTheTrace)
{
    Trace t;
    t.add(std::vector<std::uint8_t>(64, 1));
    t.add(std::vector<std::uint8_t>(100, 2));
    TraceReplay r(t);
    std::uint8_t buf[kMaxFrameLen];
    for (int lap = 0; lap < 2; ++lap) {
        double gap = 0;
        EXPECT_EQ(r.next_frame(buf, sizeof(buf), &gap), 64u);
        EXPECT_EQ(buf[63], 1);
        EXPECT_EQ(gap, 1.0);
        EXPECT_EQ(r.next_frame(buf, sizeof(buf), &gap), 100u);
        EXPECT_EQ(buf[99], 2);
    }
}

TEST(FixedTrace, SizesAndFlows)
{
    Trace t = make_fixed_size_trace(512, 256, 16);
    ASSERT_EQ(t.size(), 256u);
    std::set<std::uint32_t> flows;
    for (std::size_t i = 0; i < t.size(); ++i) {
        EXPECT_EQ(t.len(i), 512u);
        FiveTuple tup = extract_tuple(t.data(i), t.len(i));
        flows.insert(tup.src_ip.value);
    }
    EXPECT_EQ(flows.size(), 16u);
}

TEST(FixedTrace, FramesAreValidIpv4)
{
    Trace t = make_fixed_size_trace(128, 64);
    for (std::size_t i = 0; i < t.size(); ++i) {
        FrameView v = parse_frame(const_cast<std::uint8_t *>(t.data(i)),
                                  t.len(i));
        ASSERT_NE(v.ip, nullptr) << i;
        EXPECT_NE(v.udp, nullptr) << i;
    }
}

TEST(CampusTrace, MatchesPaperStatistics)
{
    CampusTraceConfig cfg;
    cfg.num_packets = 20000;
    cfg.seed = 42;
    Trace t = make_campus_trace(cfg);
    ASSERT_EQ(t.size(), cfg.num_packets);
    // Mean within 5% of the paper's 981 B.
    EXPECT_NEAR(t.mean_len(), 981.0, 981.0 * 0.05);
}

TEST(CampusTrace, ProtocolMixture)
{
    CampusTraceConfig cfg;
    cfg.num_packets = 20000;
    cfg.seed = 7;
    Trace t = make_campus_trace(cfg);
    std::size_t tcp = 0, udp = 0, icmp = 0, arp = 0;
    for (std::size_t i = 0; i < t.size(); ++i) {
        FrameView v = parse_frame(const_cast<std::uint8_t *>(t.data(i)),
                                  t.len(i));
        if (!v.ip) {
            ++arp;
            continue;
        }
        if (v.ip->proto == kIpProtoTcp)
            ++tcp;
        else if (v.ip->proto == kIpProtoUdp)
            ++udp;
        else if (v.ip->proto == kIpProtoIcmp)
            ++icmp;
    }
    const double n = static_cast<double>(t.size());
    EXPECT_GT(tcp / n, 0.75);
    EXPECT_NEAR(udp / n, 0.12, 0.02);
    EXPECT_NEAR(icmp / n, 0.02, 0.01);
    EXPECT_NEAR(arp / n, 0.005, 0.004);
}

TEST(CampusTrace, Deterministic)
{
    CampusTraceConfig cfg;
    cfg.num_packets = 500;
    Trace a = make_campus_trace(cfg);
    Trace b = make_campus_trace(cfg);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a.len(i), b.len(i));
        EXPECT_EQ(std::memcmp(a.data(i), b.data(i), a.len(i)), 0);
    }
}

TEST(CampusTrace, ValidChecksums)
{
    CampusTraceConfig cfg;
    cfg.num_packets = 2000;
    Trace t = make_campus_trace(cfg);
    for (std::size_t i = 0; i < t.size(); ++i) {
        FrameView v = parse_frame(const_cast<std::uint8_t *>(t.data(i)),
                                  t.len(i));
        if (v.ip) {
            EXPECT_EQ(internet_checksum(
                          reinterpret_cast<const std::uint8_t *>(v.ip),
                          v.ip->header_len()),
                      0)
                << "packet " << i;
        }
    }
}

} // namespace
} // namespace pmill
