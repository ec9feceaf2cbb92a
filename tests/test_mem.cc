/**
 * @file
 * Unit and property tests for the simulated memory and cache
 * hierarchy: allocation invariants, hit/miss walks, LRU behaviour,
 * DDIO way restriction, TLB behaviour, and counter bookkeeping.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/mem/cache.hh"
#include "src/mem/payload_park.hh"
#include "src/mem/sim_memory.hh"
#include "src/table/cuckoo_hash.hh"
#include "src/workload/workload.hh"

namespace pmill {
namespace {

TEST(SimMemory, AllocationsAreDisjointAndAligned)
{
    SimMemory mem;
    MemHandle a = mem.alloc(100, 64, Region::kHeap);
    MemHandle b = mem.alloc(100, 64, Region::kHeap);
    EXPECT_EQ(a.addr % 64, 0u);
    EXPECT_EQ(b.addr % 64, 0u);
    EXPECT_GE(b.addr, a.addr + 100);
    EXPECT_TRUE(a && b);
}

/** Resident set size of this process in bytes (VmRSS), or 0 when
 * /proc/self/status cannot be read. */
std::uint64_t
resident_bytes()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmRSS:", 0) == 0)
            return std::stoull(line.substr(6)) * 1024;
    return 0;
}

TEST(SimMemory, HostBackingIsZeroedAndWritable)
{
    SimMemory mem;
    MemHandle h = mem.alloc(256, 64, Region::kPacketData);
    for (std::size_t i = 0; i < 256; ++i)
        EXPECT_EQ(h.host[i], 0);
    std::memset(h.host, 0xAB, 256);
    EXPECT_EQ(h.host[255], 0xAB);

    // A range far above the allocator's largest mmap threshold (32
    // MiB) costs resident memory only for the pages it touches: the
    // backing is zeroed without being written. The 32-MiB allowance
    // covers sanitizer shadow writes and a few transparent huge pages.
    constexpr std::uint64_t kBig = std::uint64_t(256) << 20;
    const std::uint64_t before = resident_bytes();
    ASSERT_GT(before, 0u) << "VmRSS unreadable";
    MemHandle big = mem.alloc(kBig, 64, Region::kPayloadPark);
    const std::uint64_t after = resident_bytes();
    EXPECT_LT(after, before + (std::uint64_t(32) << 20))
        << "RSS grew by " << ((after - before) >> 20) << " MiB";
    for (std::uint64_t off = 0; off < kBig; off += std::uint64_t(16) << 20)
        EXPECT_EQ(big.host[off + 4095], 0) << "offset " << off;
    EXPECT_EQ(big.host[kBig - 1], 0);
    big.host[12345] = 0x5A;
    big.host[kBig - 1] = 0xA5;
    EXPECT_EQ(big.host[12345], 0x5A);
    EXPECT_EQ(big.host[kBig - 1], 0xA5);
}

TEST(SimMemory, HostPtrLookup)
{
    SimMemory mem;
    MemHandle a = mem.alloc(128, 64, Region::kTable);
    MemHandle b = mem.alloc(128, 64, Region::kTable);
    a.host[5] = 7;
    EXPECT_EQ(mem.host_ptr(a.addr + 5), a.host + 5);
    EXPECT_EQ(mem.host_ptr(b.addr), b.host);
    EXPECT_EQ(mem.host_ptr(a.addr + 4096 * 1024), nullptr);
    EXPECT_EQ(mem.host_ptr(0), nullptr);
}

TEST(SimMemory, ScatteredAllocationsLandOnDistinctPages)
{
    SimMemory mem;
    MemHandle a = mem.alloc_scattered(64, Region::kHeap);
    MemHandle b = mem.alloc_scattered(64, Region::kHeap);
    MemHandle c = mem.alloc_scattered(64, Region::kHeap);
    EXPECT_NE(page_of(a.addr), page_of(b.addr));
    EXPECT_NE(page_of(b.addr), page_of(c.addr));
}

TEST(SimMemory, RegionAccounting)
{
    SimMemory mem;
    mem.alloc(1000, 64, Region::kMbufPool);
    mem.alloc(24, 8, Region::kMbufPool);
    EXPECT_EQ(mem.allocated_bytes(Region::kMbufPool), 1024u);
    EXPECT_EQ(mem.allocated_bytes(Region::kTable), 0u);
}

TEST(SimMemory, ReservePlacesLikeAllocWithoutBacking)
{
    SimMemory a, b;
    for (SimMemory *m : {&a, &b}) {
        m->set_home_socket(1);
        m->alloc(100, 64, Region::kHeap);  // leave next_ unaligned
    }
    const std::uint64_t n = 3 * kPageBytes + 5;
    const MemHandle backed = a.alloc(n, kPageBytes, Region::kTable);
    const MemHandle held = b.reserve(n, kPageBytes, Region::kTable);
    EXPECT_EQ(held.addr, backed.addr);
    EXPECT_EQ(held.size, n);
    EXPECT_EQ(held.host, nullptr);
    EXPECT_FALSE(held);

    // The range is counted and tagged like an allocation...
    EXPECT_EQ(b.allocated_bytes(Region::kTable), n);
    EXPECT_EQ(b.total_allocated(), a.total_allocated());
    for (const Addr at : {held.addr, held.addr + n - 1}) {
        EXPECT_EQ(b.region_of(at), Region::kTable);
        EXPECT_EQ(b.socket_of(at), 1u);
        EXPECT_EQ(b.host_ptr(at), nullptr);  // ...but has no host bytes.
    }
    EXPECT_EQ(b.region_of(held.addr + n), Region::kHeap);

    // The next allocation lands where it would have after alloc().
    const MemHandle after_a = a.alloc(64, 64, Region::kHeap);
    const MemHandle after_b = b.alloc(64, 64, Region::kHeap);
    EXPECT_EQ(after_b.addr, after_a.addr);
    EXPECT_EQ(b.host_ptr(after_b.addr + 3), after_b.host + 3);
}

CacheConfig
tiny_config()
{
    CacheConfig c;
    c.l1_size = 1024;  // 16 lines: 2 sets x 8 ways
    c.l1_ways = 8;
    c.l2_size = 4096;
    c.l2_ways = 16;    // 4 sets
    c.llc_size = 64 * 1024;
    c.llc_ways = 16;
    c.ddio_ways = 2;
    c.tlb_enable = false;
    return c;
}

TEST(Cache, ColdMissThenHit)
{
    CacheHierarchy ch(tiny_config());
    AccessResult r1 = ch.access(0x1000, 8, AccessType::kLoad);
    EXPECT_EQ(r1.level, HitLevel::kDram);
    AccessResult r2 = ch.access(0x1000, 8, AccessType::kLoad);
    EXPECT_EQ(r2.level, HitLevel::kL1);
    EXPECT_LT(r2.core_cycles, r1.core_cycles + r1.wall_ns);
    EXPECT_EQ(ch.stats().loads, 2u);
    EXPECT_EQ(ch.stats().llc_load_misses, 1u);
}

TEST(Cache, AccessSpanningTwoLines)
{
    CacheHierarchy ch(tiny_config());
    ch.access(60, 8, AccessType::kLoad);  // crosses line 0 -> 1
    EXPECT_EQ(ch.stats().loads, 2u);
}

TEST(Cache, L1EvictionFallsBackToL2)
{
    CacheConfig cfg = tiny_config();
    CacheHierarchy ch(cfg);
    // Fill one L1 set (2 sets -> lines with even index map to set 0):
    // 8 ways + 1 extra distinct line in set 0 evicts the LRU line.
    for (int i = 0; i <= 8; ++i)
        ch.access(static_cast<Addr>(i) * 2 * kCacheLineBytes, 1,
                  AccessType::kLoad);
    // Line 0 was LRU -> now only in L2.
    AccessResult r = ch.access(0, 1, AccessType::kLoad);
    EXPECT_EQ(r.level, HitLevel::kL2);
}

TEST(Cache, LruKeepsHotLine)
{
    CacheHierarchy ch(tiny_config());
    // Touch line 0 repeatedly while streaming others through set 0.
    ch.access(0, 1, AccessType::kLoad);
    for (int i = 1; i <= 7; ++i)
        ch.access(static_cast<Addr>(i) * 2 * kCacheLineBytes, 1,
                  AccessType::kLoad);
    ch.access(0, 1, AccessType::kLoad);  // refresh line 0
    ch.access(8 * 2 * kCacheLineBytes, 1, AccessType::kLoad);  // evict LRU
    AccessResult r = ch.access(0, 1, AccessType::kLoad);
    EXPECT_EQ(r.level, HitLevel::kL1) << "hot line was evicted";
}

TEST(Cache, DeviceWriteLandsInLlcAndInvalidatesCore)
{
    CacheHierarchy ch(tiny_config());
    // Warm the line into L1.
    ch.access(0x2000, 4, AccessType::kLoad);
    // Device writes the line (new packet arrives in the same buffer).
    ch.access(0x2000, 4, AccessType::kDevWrite);
    // CPU load must now come from the LLC (core copies invalidated).
    AccessResult r = ch.access(0x2000, 4, AccessType::kLoad);
    EXPECT_EQ(r.level, HitLevel::kLlc);
}

TEST(Cache, DdioWayRestrictionThrashesWithManyLines)
{
    CacheConfig cfg = tiny_config();
    cfg.ddio_ways = 2;
    CacheHierarchy ch(cfg);
    const std::uint64_t llc_sets =
        cfg.llc_size / kCacheLineBytes / cfg.llc_ways;
    // Stream 8 distinct lines mapping to LLC set 0 via device writes;
    // only 2 ways are eligible, so older DDIO lines must be evicted.
    for (int i = 0; i < 8; ++i)
        ch.access(static_cast<Addr>(i) * llc_sets * kCacheLineBytes, 1,
                  AccessType::kDevWrite);
    AccessResult oldest = ch.access(0, 1, AccessType::kDevRead);
    EXPECT_EQ(oldest.level, HitLevel::kDram);
    AccessResult newest = ch.access(7 * llc_sets * kCacheLineBytes, 1,
                                    AccessType::kDevRead);
    EXPECT_EQ(newest.level, HitLevel::kLlc);
}

TEST(Cache, DevReadDoesNotAllocate)
{
    CacheHierarchy ch(tiny_config());
    ch.access(0x3000, 4, AccessType::kDevRead);
    AccessResult r = ch.access(0x3000, 4, AccessType::kLoad);
    EXPECT_EQ(r.level, HitLevel::kDram);
}

TEST(Cache, StoreCountsSeparately)
{
    CacheHierarchy ch(tiny_config());
    ch.access(0x100, 4, AccessType::kStore);
    EXPECT_EQ(ch.stats().stores, 1u);
    EXPECT_EQ(ch.stats().loads, 0u);
    EXPECT_EQ(ch.stats().llc_store_misses, 1u);
}

TEST(Cache, StatsResetKeepsContentsWarm)
{
    CacheHierarchy ch(tiny_config());
    ch.access(0x100, 4, AccessType::kLoad);
    ch.stats_reset();
    EXPECT_EQ(ch.stats().loads, 0u);
    AccessResult r = ch.access(0x100, 4, AccessType::kLoad);
    EXPECT_EQ(r.level, HitLevel::kL1);
}

TEST(Cache, FlushColdsEverything)
{
    CacheHierarchy ch(tiny_config());
    ch.access(0x100, 4, AccessType::kLoad);
    ch.flush();
    AccessResult r = ch.access(0x100, 4, AccessType::kLoad);
    EXPECT_EQ(r.level, HitLevel::kDram);
}

TEST(Cache, BuildingModelStateLeavesItNonResident)
{
    // Sixteen default hierarchies (a 2 MiB LLC tag store each), a
    // 1M-key cuckoo table (64 MiB of buckets) and a 1M-flow workload
    // (8 MiB of slots): all-zero bytes are each one's empty state, so
    // building them writes none of it. Eagerly written, this grows
    // VmRSS by about 107 MiB.
    const std::uint64_t before = resident_bytes();
    ASSERT_GT(before, 0u) << "VmRSS unreadable";
    std::vector<CacheHierarchy> caches(16);
    SimMemory mem;
    CuckooHash<std::uint64_t, std::uint32_t> table(mem, 1u << 20);
    WorkloadSpec spec;
    spec.flows = 1u << 20;
    WorkloadSource source(spec);
    const std::uint64_t after = resident_bytes();
    EXPECT_LT(after, before + (std::uint64_t(16) << 20))
        << "RSS grew by " << ((after - before) >> 20) << " MiB";

    // Each cold hierarchy serves a first access from DRAM, then L1.
    for (CacheHierarchy &ch : caches) {
        EXPECT_EQ(ch.access(0x123440, 8, AccessType::kLoad).level,
                  HitLevel::kDram);
        EXPECT_EQ(ch.access(0x123440, 8, AccessType::kLoad).level,
                  HitLevel::kL1);
    }
    EXPECT_FALSE(table.lookup(42).has_value());
    EXPECT_EQ(source.state_bytes(), spec.flows * 8);
}

TEST(Cache, TagRangeEndsOneBelowAllOnes)
{
    // 4 sets x 2 ways: the tag proper is line >> 2. The largest tag
    // proper a line may have is 0xFFFFFFFE; its stored form is
    // nonzero, so it is never mistaken for an empty way.
    CacheLevel level(4 * 2 * kCacheLineBytes, 2);
    const std::uint64_t top = (std::uint64_t(0xFFFFFFFEu) << 2) | 1;
    EXPECT_FALSE(level.lookup(top));
    level.insert(top);
    EXPECT_TRUE(level.lookup(top));
    EXPECT_FALSE(level.lookup(top ^ 1));  // same tag, other set

    // Tag proper 0xFFFFFFFF would be stored as the empty tag.
    const std::uint64_t over = (std::uint64_t(0xFFFFFFFFu) << 2) | 1;
    EXPECT_DEATH(level.insert_absent(over), "32-bit tag range");
    level.insert(top - 4);  // fill the set's other way
    EXPECT_DEATH(level.insert(over), "32-bit tag range");
}

TEST(Cache, TlbMissAddsWallTime)
{
    CacheConfig cfg = tiny_config();
    cfg.tlb_enable = true;
    cfg.tlb_entries = 4;
    CacheHierarchy ch(cfg);
    ch.access(0, 1, AccessType::kLoad);
    EXPECT_EQ(ch.stats().tlb_misses, 1u);
    ch.access(8, 1, AccessType::kLoad);  // same page
    EXPECT_EQ(ch.stats().tlb_misses, 1u);
    // Cycle through 5 pages in a 4-entry TLB: page 0 evicted.
    for (int p = 1; p <= 4; ++p)
        ch.access(static_cast<Addr>(p) * kPageBytes, 1, AccessType::kLoad);
    ch.access(16, 1, AccessType::kLoad);
    EXPECT_EQ(ch.stats().tlb_misses, 6u);
}

TEST(Cache, MemStatsSubtraction)
{
    MemStats a;
    a.loads = 10;
    a.llc_load_misses = 4;
    MemStats b;
    b.loads = 3;
    b.llc_load_misses = 1;
    MemStats d = a - b;
    EXPECT_EQ(d.loads, 7u);
    EXPECT_EQ(d.llc_load_misses, 3u);
}

TEST(Cache, LlcLoadsAlias)
{
    MemStats s;
    s.l2_load_misses = 123;
    EXPECT_EQ(s.llc_loads(), 123u);
}

// Property: a working set smaller than L1 eventually hits L1 on every
// access; a working set larger than LLC keeps missing.
class CacheWorkingSet : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CacheWorkingSet, SteadyStateResidency)
{
    CacheConfig cfg;  // full-size default config
    cfg.tlb_enable = false;
    CacheHierarchy ch(cfg);
    const std::uint64_t ws_bytes = GetParam();
    const std::uint64_t lines = ws_bytes / kCacheLineBytes;

    // Two warmup sweeps, then a measured sweep.
    for (int sweep = 0; sweep < 2; ++sweep)
        for (std::uint64_t i = 0; i < lines; ++i)
            ch.access(i * kCacheLineBytes, 1, AccessType::kLoad);
    ch.stats_reset();
    for (std::uint64_t i = 0; i < lines; ++i)
        ch.access(i * kCacheLineBytes, 1, AccessType::kLoad);

    const MemStats &s = ch.stats();
    if (ws_bytes <= cfg.l1_size) {
        EXPECT_EQ(s.l1_load_misses, 0u);
    } else if (ws_bytes <= cfg.l2_size / 2) {
        EXPECT_EQ(s.l2_load_misses, 0u);
    } else if (ws_bytes <= cfg.llc_size / 2) {
        EXPECT_EQ(s.llc_load_misses, 0u);
    } else if (ws_bytes >= cfg.llc_size * 2) {
        // Sequential sweep over 2x LLC with LRU: every access misses.
        EXPECT_GT(s.llc_load_misses, lines * 9 / 10);
    }
}

INSTANTIATE_TEST_SUITE_P(WorkingSets, CacheWorkingSet,
                         ::testing::Values(16 * 1024,        // fits L1
                                           512 * 1024,       // fits L2
                                           8 * 1024 * 1024,  // fits LLC
                                           48 * 1024 * 1024  // exceeds LLC
                                           ));

TEST(PayloadPark, TicketLifecycleAndLifoReuse)
{
    SimMemory mem;
    PayloadPark park(mem, 4, 2048);
    std::uint8_t pay[256];
    std::memset(pay, 0x5A, sizeof pay);

    const std::uint32_t t1 = park.park(pay, 256);
    const std::uint32_t t2 = park.park(pay, 128);
    EXPECT_NE(t1, t2);
    EXPECT_NE(park.slot_addr(t1), park.slot_addr(t2));
    EXPECT_EQ(std::memcmp(park.slot_host(t1), pay, 256), 0);

    PayloadPark::Stats st = park.stats();
    EXPECT_EQ(st.parked, 2u);
    EXPECT_EQ(st.outstanding, 2u);
    EXPECT_EQ(st.capacity, 4u);

    park.release(t1, /*dropped=*/false);
    park.release(t2, /*dropped=*/true);
    st = park.stats();
    EXPECT_EQ(st.rejoined, 1u);
    EXPECT_EQ(st.dropped, 1u);
    EXPECT_EQ(st.outstanding, 0u);
    EXPECT_EQ(st.parked, st.rejoined + st.dropped + st.outstanding);

    // LIFO free list: the most recently released ticket is reissued
    // first, so simulated slot addresses are a pure function of the
    // park/release sequence (determinism across thread counts).
    EXPECT_EQ(park.park(pay, 64), t2);
}

TEST(PayloadPark, DoubleFreeDies)
{
    SimMemory mem;
    PayloadPark park(mem, 2, 2048);
    std::uint8_t pay[64] = {};
    const std::uint32_t t = park.park(pay, 64);
    park.release(t, false);
    EXPECT_DEATH(park.release(t, false), "double-free");
}

TEST(PayloadPark, ExhaustionAndOversizeDie)
{
    SimMemory mem;
    PayloadPark park(mem, 1, 128);
    std::uint8_t pay[256] = {};
    EXPECT_DEATH(park.park(pay, 256), "exceeds park slot");
    (void)park.park(pay, 128);
    EXPECT_DEATH(park.park(pay, 64), "exhausted");
}

} // namespace
} // namespace pmill
