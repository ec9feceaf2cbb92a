/**
 * @file
 * Tests for the traffic generators and trace file I/O.
 */

#include <gtest/gtest.h>

#include <cstdio>
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

TEST(Trace, SaveLoadRoundTrip)
{
    Trace t = make_fixed_size_trace(200, 50);
    const std::string path = "/tmp/pmill_trace_test.bin";
    ASSERT_TRUE(t.save(path));

    Trace loaded;
    ASSERT_TRUE(loaded.load(path));
    ASSERT_EQ(loaded.size(), t.size());
    EXPECT_EQ(loaded.total_bytes(), t.total_bytes());
    for (std::size_t i = 0; i < t.size(); ++i) {
        ASSERT_EQ(loaded.len(i), t.len(i));
        EXPECT_EQ(std::memcmp(loaded.data(i), t.data(i), t.len(i)), 0);
    }
    std::remove(path.c_str());
}

TEST(Trace, LoadRejectsGarbage)
{
    const std::string path = "/tmp/pmill_trace_garbage.bin";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a trace file at all", f);
    std::fclose(f);
    Trace t;
    EXPECT_FALSE(t.load(path));
    EXPECT_TRUE(t.empty());
    std::remove(path.c_str());
    EXPECT_FALSE(t.load("/nonexistent/path/file.bin"));

    // Well-formed headers with bad contents: a file in save()'s
    // layout holding one index entry (offset 0, length @p len) and
    // @p blob_bytes of frame data, under the header counts given.
    auto crafted = [&](std::uint64_t count, std::uint64_t blob,
                       std::uint32_t len, std::size_t blob_bytes) {
        std::FILE *cf = std::fopen(path.c_str(), "wb");
        EXPECT_NE(cf, nullptr);
        const std::uint32_t magic = 0x504D5452;
        const std::uint64_t offset = 0;
        const std::vector<std::uint8_t> bytes(blob_bytes, 0xAB);
        std::fwrite(&magic, sizeof(magic), 1, cf);
        std::fwrite(&count, sizeof(count), 1, cf);
        std::fwrite(&blob, sizeof(blob), 1, cf);
        std::fwrite(&offset, sizeof(offset), 1, cf);
        std::fwrite(&len, sizeof(len), 1, cf);
        std::fwrite(bytes.data(), 1, bytes.size(), cf);
        std::fclose(cf);
        Trace ct;
        const bool ok = ct.load(path);
        std::remove(path.c_str());
        return ok && !ct.empty();
    };
    EXPECT_TRUE(crafted(1, 64, 64, 64)) << "the control file must load";
    EXPECT_FALSE(crafted(1, 64, 0, 64)) << "zero-length frame";
    EXPECT_FALSE(crafted(1, 2048, kMaxFrameLen + 1, 2048))
        << "frame longer than kMaxFrameLen";
    EXPECT_FALSE(crafted(1, 64, 65, 64)) << "frame past the blob";
    EXPECT_FALSE(crafted(std::uint64_t{1} << 60, 64, 64, 64))
        << "count larger than the file";
    EXPECT_FALSE(crafted(1, std::uint64_t{1} << 60, 64, 64))
        << "blob larger than the file";
    EXPECT_FALSE(crafted(1, 128, 64, 64)) << "blob truncated";
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
