/**
 * @file
 * Differential oracle for the cache model: a deliberately naive
 * reference hierarchy (per-set ways with {tag, stamp, valid, cpu}
 * off a shared clock, full way scans, a linearly scanned TLB) runs
 * the same seeded random access stream as CacheHierarchy, and every
 * AccessResult field and the final MemStats must agree exactly.
 *
 * CacheHierarchy compacts that state (nibble recency permutations,
 * bitmask valid/demand flags, zero-encoded tag stores, MRU filters,
 * a hashed TLB); this test is what pins the compaction to the
 * semantics it claims to preserve.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/common/random.hh"
#include "src/mem/cache.hh"

namespace pmill {
namespace {

/** One cache level as the straightforward stamped tag store. */
class RefLevel {
  public:
    RefLevel(std::uint64_t size_bytes, std::uint32_t ways,
             std::uint64_t *clock)
        : ways_(ways), sets_(size_bytes / kCacheLineBytes / ways),
          way_(sets_ * ways), clock_(clock)
    {
    }

    bool
    lookup(std::uint64_t line)
    {
        Way *w = find(line);
        if (w == nullptr)
            return false;
        w->stamp = ++*clock_;
        return true;
    }

    /** Refresh if present; else fill a victim among the first
     * @p way_limit ways (0 = all): invalid first, then the LRU
     * streaming-filled way, then the LRU way overall. */
    void
    insert(std::uint64_t line, std::uint32_t way_limit = 0,
           bool cpu_fill = true)
    {
        if (Way *w = find(line)) {
            w->stamp = ++*clock_;
            w->cpu = cpu_fill;
            return;
        }
        Way *set = &way_[(line % sets_) * ways_];
        const std::uint32_t limit =
            (way_limit == 0 || way_limit > ways_) ? ways_ : way_limit;
        Way *victim = nullptr;
        for (std::uint32_t i = 0; i < limit && victim == nullptr; ++i)
            if (!set[i].valid)
                victim = &set[i];
        if (victim == nullptr)
            victim = lru(set, limit, /*streaming_only=*/true);
        if (victim == nullptr)
            victim = lru(set, limit, /*streaming_only=*/false);
        *victim = Way{line, ++*clock_, true, cpu_fill};
    }

    void
    invalidate(std::uint64_t line)
    {
        if (Way *w = find(line))
            w->valid = false;
    }

    void
    flush()
    {
        for (Way &w : way_)
            w.valid = false;
    }

  private:
    struct Way {
        std::uint64_t tag = 0;  ///< the full line number
        std::uint64_t stamp = 0;
        bool valid = false;
        bool cpu = false;
    };

    Way *
    find(std::uint64_t line)
    {
        Way *set = &way_[(line % sets_) * ways_];
        for (std::uint32_t i = 0; i < ways_; ++i)
            if (set[i].valid && set[i].tag == line)
                return &set[i];
        return nullptr;
    }

    static Way *
    lru(Way *set, std::uint32_t limit, bool streaming_only)
    {
        Way *best = nullptr;
        for (std::uint32_t i = 0; i < limit; ++i) {
            if (streaming_only && set[i].cpu)
                continue;
            if (best == nullptr || set[i].stamp < best->stamp)
                best = &set[i];
        }
        return best;
    }

    std::uint32_t ways_;
    std::uint64_t sets_;
    std::vector<Way> way_;
    std::uint64_t *clock_;
};

/** Fully associative LRU TLB as a linear scan: victim is the first
 * never-used entry, else the least recently touched one. */
class RefTlb {
  public:
    RefTlb(std::uint32_t entries, std::uint64_t *clock)
        : entry_(entries), clock_(clock)
    {
    }

    bool
    access(std::uint64_t page)
    {
        for (Entry &e : entry_)
            if (e.valid && e.page == page) {
                e.stamp = ++*clock_;
                return true;
            }
        Entry *victim = nullptr;
        for (Entry &e : entry_)
            if (!e.valid) {
                victim = &e;
                break;
            }
        if (victim == nullptr) {
            victim = &entry_[0];
            for (Entry &e : entry_)
                if (e.stamp < victim->stamp)
                    victim = &e;
        }
        *victim = Entry{page, ++*clock_, true};
        return false;
    }

    void
    flush()
    {
        for (Entry &e : entry_)
            e.valid = false;
    }

  private:
    struct Entry {
        std::uint64_t page = 0;
        std::uint64_t stamp = 0;
        bool valid = false;
    };

    std::vector<Entry> entry_;
    std::uint64_t *clock_;
};

/** Home socket of a line: alternates every 64 KiB. */
std::uint32_t
numa_home(void *, Addr line_addr)
{
    return static_cast<std::uint32_t>((line_addr >> 16) & 1);
}

/** LLC load-miss hook: counts calls and folds their addresses. */
struct MissLog {
    std::uint64_t calls = 0;
    std::uint64_t fold = 0;

    void
    add(Addr line_addr)
    {
        ++calls;
        fold = fold * 0x9E3779B97F4A7C15ull + line_addr;
    }

    static void
    hook(void *ctx, Addr line_addr)
    {
        static_cast<MissLog *>(ctx)->add(line_addr);
    }
};

/** The hierarchy walk of cache.cc over the reference levels. */
class RefHierarchy {
  public:
    explicit RefHierarchy(const CacheConfig &cfg)
        : cfg_(cfg), l1_(cfg.l1_size, cfg.l1_ways, &clock_),
          l2_(cfg.l2_size, cfg.l2_ways, &clock_),
          llc_(cfg.llc_size, cfg.llc_ways, &clock_),
          tlb_(cfg.tlb_entries, &clock_)
    {
    }

    AccessResult
    access(Addr addr, std::uint32_t size, AccessType type)
    {
        AccessResult total;
        const std::uint64_t first = addr / kCacheLineBytes;
        const std::uint64_t last = (addr + size - 1) / kCacheLineBytes;
        for (std::uint64_t ln = first; ln <= last; ++ln) {
            const AccessResult r = line(ln, type);
            total.core_cycles += r.core_cycles;
            total.wall_ns += r.wall_ns;
            total.tlb_misses += r.tlb_misses;
            total.llc_trips += r.llc_trips;
            total.dram_fills += r.dram_fills;
            total.remote_fills += r.remote_fills;
            if (r.level > total.level)
                total.level = r.level;
        }
        return total;
    }

    void
    flush()
    {
        l1_.flush();
        l2_.flush();
        llc_.flush();
        tlb_.flush();
    }

    const MemStats &stats() const { return stats_; }
    const MissLog &misses() const { return misses_; }

  private:
    AccessResult
    line(std::uint64_t ln, AccessType type)
    {
        AccessResult r;
        switch (type) {
          case AccessType::kLoad:
          case AccessType::kStore:
            return cpu_line(ln, type == AccessType::kLoad);
          case AccessType::kDevWrite:
            ++stats_.dev_writes;
            l1_.invalidate(ln);
            l2_.invalidate(ln);
            llc_.insert(ln, cfg_.ddio_ways, /*cpu_fill=*/false);
            r.level = HitLevel::kLlc;
            return r;
          case AccessType::kPrefetch:
            ++stats_.prefetches;
            if (!l1_.lookup(ln)) {
                if (!l2_.lookup(ln)) {
                    if (!llc_.lookup(ln))
                        llc_.insert(ln, 0, /*cpu_fill=*/false);
                    l2_.insert(ln);
                }
                l1_.insert(ln);
            }
            r.level = HitLevel::kL1;
            return r;
          case AccessType::kDevRead:
            ++stats_.dev_reads;
            if (llc_.lookup(ln)) {
                r.level = HitLevel::kLlc;
            } else {
                r.level = HitLevel::kDram;
                ++stats_.dev_reads_dram;
            }
            return r;
          case AccessType::kParkWrite:
            ++stats_.park_fills;
            l1_.invalidate(ln);
            l2_.invalidate(ln);
            llc_.invalidate(ln);
            r.level = HitLevel::kDram;
            return r;
          case AccessType::kParkRead:
            ++stats_.park_gathers;
            r.level = llc_.lookup(ln) ? HitLevel::kLlc : HitLevel::kDram;
            return r;
        }
        ADD_FAILURE() << "unknown access type";
        return r;
    }

    AccessResult
    cpu_line(std::uint64_t ln, bool is_load)
    {
        AccessResult r;
        if (cfg_.tlb_enable && !tlb_.access(ln / kLinesPerPage)) {
            ++stats_.tlb_misses;
            r.wall_ns += cfg_.tlb_miss_ns;
            ++r.tlb_misses;
        }
        ++(is_load ? stats_.loads : stats_.stores);
        r.core_cycles += cfg_.l1_cycles;
        if (l1_.lookup(ln)) {
            r.level = HitLevel::kL1;
            return r;
        }
        ++(is_load ? stats_.l1_load_misses : stats_.l1_store_misses);
        r.core_cycles += cfg_.l2_cycles;
        if (l2_.lookup(ln)) {
            l1_.insert(ln);
            r.level = HitLevel::kL2;
            return r;
        }
        ++(is_load ? stats_.l2_load_misses : stats_.l2_store_misses);
        r.wall_ns += cfg_.llc_ns;
        ++r.llc_trips;
        if (llc_.lookup(ln)) {
            l2_.insert(ln);
            l1_.insert(ln);
            r.level = HitLevel::kLlc;
            return r;
        }
        if (is_load) {
            ++stats_.llc_load_misses;
            misses_.add(ln * kCacheLineBytes);
        } else {
            ++stats_.llc_store_misses;
        }
        r.wall_ns += cfg_.dram_ns;
        ++r.dram_fills;
        if (numa_home(nullptr, ln * kCacheLineBytes) != 0) {
            r.wall_ns += cfg_.numa_remote_ns;
            ++r.remote_fills;
            ++stats_.numa_remote_fills;
        }
        llc_.insert(ln);
        l2_.insert(ln);
        l1_.insert(ln);
        r.level = HitLevel::kDram;
        return r;
    }

    CacheConfig cfg_;
    std::uint64_t clock_ = 0;
    RefLevel l1_;
    RefLevel l2_;
    RefLevel llc_;
    RefTlb tlb_;
    MemStats stats_;
    MissLog misses_;
};

::testing::AssertionResult
same_result(const AccessResult &got, const AccessResult &want,
            std::uint64_t i)
{
    if (got.level == want.level && got.core_cycles == want.core_cycles &&
        got.wall_ns == want.wall_ns && got.tlb_misses == want.tlb_misses &&
        got.llc_trips == want.llc_trips &&
        got.dram_fills == want.dram_fills &&
        got.remote_fills == want.remote_fills)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "access " << i << ": level "
           << static_cast<int>(got.level) << " vs "
           << static_cast<int>(want.level) << ", core_cycles "
           << got.core_cycles << " vs " << want.core_cycles << ", wall_ns "
           << got.wall_ns << " vs " << want.wall_ns << ", tlb "
           << got.tlb_misses << " vs " << want.tlb_misses << ", llc_trips "
           << got.llc_trips << " vs " << want.llc_trips << ", dram "
           << got.dram_fills << " vs " << want.dram_fills << ", remote "
           << got.remote_fills << " vs " << want.remote_fills;
}

void
expect_same_stats(const MemStats &got, const MemStats &want)
{
#define PMILL_SAME(f) EXPECT_EQ(got.f, want.f) << #f
    PMILL_SAME(loads);
    PMILL_SAME(stores);
    PMILL_SAME(l1_load_misses);
    PMILL_SAME(l2_load_misses);
    PMILL_SAME(llc_load_misses);
    PMILL_SAME(l1_store_misses);
    PMILL_SAME(l2_store_misses);
    PMILL_SAME(llc_store_misses);
    PMILL_SAME(dev_writes);
    PMILL_SAME(dev_reads);
    PMILL_SAME(dev_reads_dram);
    PMILL_SAME(tlb_misses);
    PMILL_SAME(prefetches);
    PMILL_SAME(numa_remote_fills);
    PMILL_SAME(park_fills);
    PMILL_SAME(park_gathers);
#undef PMILL_SAME
}

/**
 * Run @p n seeded random accesses through both models. Each access
 * picks a working set sized to fit L1, L2, the LLC, or none of them
 * (so every level serves hits), one of the seven access types, and a
 * 1..256-byte size at any byte offset (so many span lines). The
 * hierarchies are flushed once, mid-stream.
 */
void
run_oracle(const CacheConfig &cfg, std::uint64_t n, std::uint64_t seed)
{
    CacheHierarchy model(cfg);
    RefHierarchy ref(cfg);
    MissLog misses;
    model.set_llc_miss_hook(&MissLog::hook, &misses);
    model.set_numa_probe(&numa_home, nullptr, 0);

    // Disjoint working sets; the DRAM one sits above 4 GiB so tags
    // use their high bits.
    struct Set {
        Addr base;
        std::uint64_t bytes;
    };
    const Set sets[] = {
        {Addr(1) << 20, cfg.l1_size / 2},
        {Addr(1) << 28, cfg.l2_size / 2},
        {Addr(1) << 30, cfg.llc_size / 2},
        {Addr(1) << 33, cfg.llc_size * 16},
    };
    const std::uint32_t set_weight[] = {40, 25, 20, 15};
    const AccessType types[] = {
        AccessType::kLoad,      AccessType::kStore,
        AccessType::kDevWrite,  AccessType::kDevRead,
        AccessType::kPrefetch,  AccessType::kParkWrite,
        AccessType::kParkRead,
    };
    const std::uint32_t type_weight[] = {40, 20, 12, 8, 8, 6, 6};

    Xorshift64 rng(seed);
    auto pick = [&rng](const std::uint32_t *w, std::size_t k) {
        std::uint32_t sum = 0;
        for (std::size_t i = 0; i < k; ++i)
            sum += w[i];
        std::uint64_t u = rng.next_below(sum);
        std::size_t i = 0;
        while (u >= w[i])
            u -= w[i++];
        return i;
    };

    for (std::uint64_t i = 0; i < n; ++i) {
        if (i == n / 2) {
            model.flush();
            ref.flush();
        }
        const Set &s = sets[pick(set_weight, 4)];
        const AccessType type = types[pick(type_weight, 7)];
        const std::uint32_t size =
            1 + static_cast<std::uint32_t>(
                    rng.next_below(rng.next_below(4) == 0 ? 256 : 16));
        const Addr addr = s.base + rng.next_below(s.bytes);
        const AccessResult got = model.access(addr, size, type);
        const AccessResult want = ref.access(addr, size, type);
        ASSERT_TRUE(same_result(got, want, i))
            << "addr 0x" << std::hex << addr << std::dec << " size "
            << size << " type " << static_cast<int>(type);
    }
    expect_same_stats(model.stats(), ref.stats());
    EXPECT_EQ(misses.calls, ref.misses().calls);
    EXPECT_EQ(misses.fold, ref.misses().fold);

    // The stream reached every level and both TLB outcomes.
    const MemStats &st = model.stats();
    EXPECT_GT(st.l1_load_misses, 0u);
    EXPECT_LT(st.l2_load_misses, st.l1_load_misses);
    EXPECT_LT(st.llc_load_misses, st.l2_load_misses);
    EXPECT_GT(st.llc_load_misses, 0u);
    EXPECT_GT(st.tlb_misses, 0u);
    EXPECT_GT(st.numa_remote_fills, 0u);
    EXPECT_GT(st.dev_reads_dram, 0u);
    EXPECT_LT(st.dev_reads_dram, st.dev_reads);
}

TEST(CacheOracle, DefaultGeometryMatchesReference)
{
    run_oracle(CacheConfig{}, 600000, 0x0AC1E01ull);
}

TEST(CacheOracle, SmallLlcMatchesReference)
{
    // Small levels, a 2-way DDIO mask, and an 8-entry TLB: evictions,
    // streaming-vs-demand victim choices and TLB replacement on most
    // accesses.
    CacheConfig cfg;
    cfg.l1_size = 4 * 1024;  // 16 sets x 4 ways
    cfg.l1_ways = 4;
    cfg.l2_size = 32 * 1024;  // 32 sets x 16 ways
    cfg.l2_ways = 16;
    cfg.llc_size = 12 * 64 * 128;  // 128 sets x 12 ways
    cfg.llc_ways = 12;
    cfg.ddio_ways = 2;
    cfg.tlb_entries = 8;
    run_oracle(cfg, 600000, 0x5EED2ull);
}

} // namespace
} // namespace pmill
