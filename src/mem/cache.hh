/**
 * @file
 * Set-associative cache hierarchy model (L1D / L2 / LLC + DRAM) with
 * Intel DDIO semantics for device writes.
 *
 * The model reproduces the microarchitectural quantities the paper
 * profiles with perf: LLC loads (loads that miss L2 and reach the
 * LLC), LLC load misses (loads that additionally miss the LLC and go
 * to DRAM), and memory-stall time feeding the IPC model.
 *
 * Latency is split into two components, reflecting the paper's
 * testbed, where the *core* frequency is swept while the *uncore*
 * (LLC/DRAM path) runs at a fixed 2.4 GHz:
 *  - core_cycles: L1/L2 access time, which scales with core frequency;
 *  - wall_ns: LLC/DRAM/TLB time, fixed in nanoseconds.
 *
 * Host-side hot path: access() is the most frequently executed
 * function in the whole simulator (every simulated byte range flows
 * through it), so the common case — a single-line CPU load/store that
 * hits the MRU way of L1 behind an MRU TLB entry — is fully inline in
 * this header and never enters a set scan. The MRU filters are pure
 * host-side accelerators: a hit through the filter performs exactly
 * the state transition (LRU stamp refresh off the shared clock) that
 * the full scan would, so every simulated counter and every future
 * replacement decision is bit-identical to the scanning
 * implementation. Miss continuations live in cache.cc.
 */

#ifndef PMILL_MEM_CACHE_HH
#define PMILL_MEM_CACHE_HH

#include <cstdint>
#include <vector>

#include "src/common/log.hh"
#include "src/common/types.hh"
#include "src/common/zeroed.hh"

namespace pmill {

/** Where an access was satisfied. */
enum class HitLevel : std::uint8_t { kL1, kL2, kLlc, kDram };

/** Kind of memory access. */
enum class AccessType : std::uint8_t {
    kLoad,      ///< CPU load.
    kStore,     ///< CPU store (write-allocate).
    kDevWrite,  ///< Device (NIC DMA) write: allocates in LLC DDIO ways.
    kDevRead,   ///< Device (NIC DMA) read: served from LLC/DRAM.
    kPrefetch,  ///< Software prefetch (rte_prefetch): fills L1/L2
                ///< ahead of use, hidden by the pipeline (no latency,
                ///< not a perf-visible demand load).
    kParkWrite, ///< Payload park at RX: DRAM-direct (bypasses the
                ///< DDIO ways — parked lines never pollute the LLC);
                ///< stale core copies invalidated.
    kParkRead,  ///< TX gather from the park arena: LLC if a line is
                ///< somehow resident (a core materialized it), else
                ///< DRAM. No allocation.
};

/** Geometry and latency parameters of the modeled hierarchy. */
struct CacheConfig {
    std::uint64_t l1_size = 32 * 1024;
    std::uint32_t l1_ways = 8;
    /// Effective per-access cost on a 4-wide OoO core (two L1 ports,
    /// latency largely hidden): well below the raw 4-cycle L1 latency.
    double l1_cycles = 2.0;

    std::uint64_t l2_size = 1024 * 1024;
    std::uint32_t l2_ways = 16;
    double l2_cycles = 10.0;

    /// Xeon Gold 6140: 18 cores x 1.375 MiB; rounded to a power-of-two
    /// set count at 12 ways.
    std::uint64_t llc_size = 24 * 1024 * 1024;
    std::uint32_t llc_ways = 12;
    double llc_ns = 20.0;

    double dram_ns = 90.0;

    /// Number of LLC ways device writes may allocate into. Intel's
    /// default is 2; the paper programs IIO LLC WAYS to 8 (0x7F8).
    std::uint32_t ddio_ways = 8;

    bool tlb_enable = true;
    std::uint32_t tlb_entries = 64;
    double tlb_miss_ns = 18.0;

    /// Extra latency a DRAM fill pays when the line's home socket
    /// differs from the accessing core's socket (QPI/UPI hop). Only
    /// consulted when a NUMA probe is installed on the hierarchy;
    /// single-socket machines never pay it.
    double numa_remote_ns = 60.0;
};

/** Result of one (line-granular) access walk through the hierarchy. */
struct AccessResult {
    HitLevel level = HitLevel::kL1;
    double core_cycles = 0.0;  ///< Core-clocked latency component.
    double wall_ns = 0.0;      ///< Uncore latency component (fixed ns).

    /// @name Uncore latency decomposition (cycle accounting).
    /// wall_ns == tlb_misses * tlb_miss_ns + llc_trips * llc_ns +
    /// dram_fills * dram_ns + remote_fills * numa_remote_ns; counts
    /// rather than nanoseconds so the accounting layer can
    /// reconstruct each component exactly.
    /// @{
    std::uint32_t tlb_misses = 0;  ///< TLB walks charged.
    std::uint32_t llc_trips = 0;   ///< Lines that paid the LLC trip
                                   ///< (every L2 miss, hit or not).
    std::uint32_t dram_fills = 0;  ///< Lines that additionally hit DRAM.
    std::uint32_t remote_fills = 0;  ///< DRAM fills from a remote socket.
    /// @}
};

/** Counters matching the perf events the paper reports. */
struct MemStats {
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t l1_load_misses = 0;
    std::uint64_t l2_load_misses = 0;   ///< == LLC loads (perf LLC-loads)
    std::uint64_t llc_load_misses = 0;  ///< perf LLC-load-misses
    std::uint64_t l1_store_misses = 0;
    std::uint64_t l2_store_misses = 0;
    std::uint64_t llc_store_misses = 0;
    std::uint64_t dev_writes = 0;
    std::uint64_t dev_reads = 0;
    std::uint64_t dev_reads_dram = 0;  ///< TX DMA reads that left LLC
    std::uint64_t tlb_misses = 0;
    std::uint64_t prefetches = 0;
    std::uint64_t numa_remote_fills = 0;  ///< DRAM fills off-socket
    std::uint64_t park_fills = 0;    ///< payload lines parked at RX
    std::uint64_t park_gathers = 0;  ///< payload lines gathered at TX

    /** LLC loads (the perf "LLC-loads" event). */
    std::uint64_t llc_loads() const { return l2_load_misses; }

    MemStats operator-(const MemStats &o) const;
};

/**
 * One cache level: set-associative, LRU, write-allocate, writeback.
 * Tag state only (no data); SimMemory holds the actual bytes.
 *
 * The modeled semantics are those of the straightforward tag store —
 * per-way {tag, LRU stamp off a shared clock, valid, demand-filled}
 * with full way scans. The host representation is an exact compaction
 * of that into one cache-line-sized block per set:
 *  - tags are stored as the 32-bit tag proper (line >> log2(sets);
 *    the set-index bits are implied), injective for any simulated
 *    address below 2^(32 + log2(sets)), so compares are identical;
 *  - the per-way LRU stamps are replaced by a 16-nibble recency
 *    permutation word (nibble 0 = MRU way, nibble ways-1 = LRU way).
 *    Stamps are only ever compared between ways of the same set, and
 *    they are unique and assigned in touch order, so "way with the
 *    minimum stamp among candidates" is exactly "candidate closest to
 *    the permutation's LRU end" — every hit refresh and every victim
 *    choice is bit-identical to the stamped implementation;
 *  - valid and demand-filled become per-set bitmasks, making "first
 *    invalid way in index order" a ctz.
 * A lookup, insert, or invalidate therefore touches one line of host
 * memory per set (two for 16-way levels), which is what keeps several
 * per-core LLC tag arrays from thrashing the host's own cache.
 *
 * The block is encoded so that all-zero bytes are an empty set: a way
 * stores the bitwise NOT of its tag proper (an invalid way stores 0,
 * which no inserted tag can produce), and the recency word is stored
 * XORed with the identity permutation. The store is taken zeroed from
 * calloc, so building a level writes nothing and a set's host page
 * becomes resident only when a run touches it.
 */
class CacheLevel {
  public:
    /**
     * @p invalidate_filter enables a per-set tag-signature side array
     * consulted by invalidate(): bit (tag & 63) is set for every valid
     * way, so a clear bit proves absence and skips loading the set
     * block entirely. Pure host-side accelerator (no false negatives;
     * a false positive just falls through to the scan, which finds
     * nothing and changes nothing). Worth its upkeep only on levels
     * that receive invalidations — L1/L2 under device writes — so the
     * LLC leaves it off.
     */
    CacheLevel(std::uint64_t size_bytes, std::uint32_t ways,
               bool invalidate_filter = false);

    /**
     * Look up @p line; on hit, refresh LRU state.
     * @return true on hit.
     */
    bool
    lookup(std::uint64_t line)
    {
        std::uint8_t *blk = block(set_of(line));
        Meta &m = meta(blk);
        const std::uint32_t mru = static_cast<std::uint32_t>(m.perm & 0xF);
        if (PMILL_LIKELY(tags(blk)[mru] == stored_tag(line))) {
            return true;  // already MRU: the refresh is a no-op
        }
        return lookup_scan(blk, line);
    }

    /**
     * Insert @p line, evicting the LRU way among the first
     * @p way_limit ways (0 means all ways). Used to model DDIO's
     * restricted way mask for device-write allocations.
     *
     * @p cpu_fill marks demand (CPU) fills: like the scan-resistant
     * replacement of real Intel LLCs (RRIP), victim selection prefers
     * streaming-filled lines over demand-filled ones, so a reused
     * working set survives NIC DMA streaming through the DDIO ways.
     */
    void insert(std::uint64_t line, std::uint32_t way_limit = 0,
                bool cpu_fill = true);

    /**
     * insert() for a line the caller just proved absent with a failed
     * lookup(): skips the already-present refresh scan. Every miss
     * fill in the hierarchy walk uses this; only DevWrite (which
     * inserts without a prior lookup) needs the full insert().
     */
    void insert_absent(std::uint64_t line, std::uint32_t way_limit = 0,
                       bool cpu_fill = true);

    /** Remove @p line if present (device-write invalidation upstream). */
    void invalidate(std::uint64_t line);

    /** Drop all contents (zero the store). */
    void flush();

    /**
     * Host-side hint: pull @p line 's set block toward the host cache.
     * Pure prefetch — no simulated state is read or written.
     */
    void
    host_prefetch(std::uint64_t line)
    {
        __builtin_prefetch(block(set_of(line)), 1);
    }

    std::uint32_t ways() const { return ways_; }
    std::uint64_t num_sets() const { return sets_; }

  private:
    /** Per-set metadata, living right after the set's tag array. */
    struct Meta {
        /// Recency permutation XOR kIdentityPerm (so 0 is the
        /// identity; read it through get_perm/set_perm). Decoded,
        /// nibble 0 holds the MRU way id, nibble ways-1 the LRU way
        /// id. Nibbles at and above ways_ keep their (unused,
        /// distinct) identity ids so the nibble-search in perm_touch
        /// never matches a phantom way. Identity nibble 0 is 0, so
        /// the stored low nibble is the MRU way id as is.
        std::uint64_t perm;
        std::uint16_t valid;  ///< valid-way bitmask
        std::uint16_t cpu;    ///< demand-filled bitmask (scan-resistant)
    };

    /// Identity permutation: nibble i = i.
    static constexpr std::uint64_t kIdentityPerm = 0xFEDCBA9876543210ull;
    static_assert((kIdentityPerm & 0xF) == 0, "stored MRU nibble is as is");

    static std::uint64_t get_perm(const Meta &m)
    {
        return m.perm ^ kIdentityPerm;
    }
    static void set_perm(Meta &m, std::uint64_t perm)
    {
        m.perm = perm ^ kIdentityPerm;
    }

    /// Tag stored in invalid ways. Tags proper are asserted strictly
    /// below 0xFFFFFFFF on insert, so no stored tag is 0 and presence
    /// scans can compare every way branchlessly (vectorizably)
    /// without consulting the valid mask: an invalid way can never
    /// produce a match.
    static constexpr std::uint32_t kInvalidTag = 0;

    /** Move way @p w to the MRU end of @p perm (one nibble rotate). */
    static std::uint64_t
    perm_touch(std::uint64_t perm, std::uint32_t w)
    {
        // Locate w's nibble: XOR makes it the unique zero nibble, and
        // the borrow of the per-nibble zero test only propagates
        // upward, so the lowest flagged nibble is the true match.
        const std::uint64_t x = perm ^ (0x1111111111111111ull * w);
        const std::uint64_t zero = (x - 0x1111111111111111ull) & ~x &
                                   0x8888888888888888ull;
        const std::uint32_t p =
            static_cast<std::uint32_t>(__builtin_ctzll(zero)) >> 2;
        // Keep nibbles above p, shift nibbles below p up one, put w
        // in front. Shift counts stay <= 60 for p <= 15.
        const std::uint64_t lo = (1ull << (4 * p)) - 1;
        const std::uint64_t hi = ~lo & ~(0xFull << (4 * p));
        return (perm & hi) | ((perm & lo) << 4) | w;
    }

    /** Full way scan behind the MRU fast path (cache.cc). */
    bool lookup_scan(std::uint8_t *blk, std::uint64_t line);

    std::uint64_t set_of(std::uint64_t line) const { return line & set_mask_; }

    /** Stored form of the tag proper (the line bits above the set
     * index): its bitwise NOT. Injective for simulated addresses
     * below 2^(32 + log2(sets)) (asserted on insert), so 32-bit
     * compares decide presence exactly. */
    std::uint32_t
    stored_tag(std::uint64_t line) const
    {
        return ~static_cast<std::uint32_t>(line >> tag_shift_);
    }

    std::uint8_t *block(std::uint64_t s) { return base_ + s * stride_; }
    std::uint32_t *tags(std::uint8_t *blk)
    {
        return reinterpret_cast<std::uint32_t *>(blk);
    }
    Meta &meta(std::uint8_t *blk)
    {
        return *reinterpret_cast<Meta *>(blk + ways_ * 4);
    }

    /** Recompute @p set 's signature from its valid way tags. */
    void resig(std::uint8_t *blk, std::uint64_t set);

    static std::uint64_t
    sig_bit(std::uint32_t tag)
    {
        return 1ull << (tag & 63);
    }

    std::uint64_t sets_;
    std::uint64_t set_mask_;
    std::uint32_t ways_;
    std::uint32_t tag_shift_;  // log2(sets_)
    std::uint32_t stride_;     // bytes per set block (cache-line multiple)
    ZeroedArray<std::uint8_t> raw_;  // block storage + alignment slack
    std::uint8_t *base_ = nullptr;   // 64-byte-aligned first block
    std::vector<std::uint64_t> sig_;  // empty unless invalidate_filter
};

/**
 * Fully associative LRU TLB over 4 KiB pages.
 *
 * Modeled semantics are those of the straightforward implementation —
 * linear scan for the hit, victim = first never-used entry in array
 * order, else the least-recently-touched one. The host-side
 * representation is an exact refactoring of that: a flat linear-probe
 * page->entry table replaces the hit scan (same membership, so same
 * hit/miss outcomes), a sequential fill cursor replaces the first-invalid scan
 * (entries only ever become invalid via flush, so the never-used set
 * is exactly a suffix), and an intrusive recency list replaces the
 * min-stamp victim scan (touch order IS stamp order, and stamps are
 * unique, so the list tail is exactly the unique min-stamp entry).
 * The tlb_misses counter and every eviction decision are therefore
 * bit-identical to the scanning model.
 */
class TlbModel {
  public:
    explicit TlbModel(std::uint32_t entries);

    /** Touch @p page; @return true on hit. */
    bool
    access(std::uint64_t page)
    {
        // Most-recently-touched entry is always the list head.
        const Entry &h = entries_[head_];
        if (PMILL_LIKELY(h.valid && h.page == page))
            return true;
        return access_slow(page);
    }

    void flush();

  private:
    struct Entry {
        std::uint64_t page = ~0ull;
        std::uint32_t prev = 0;
        std::uint32_t next = 0;
        bool valid = false;
    };

    /** Table lookup + recency maintenance + victim fill (cache.cc). */
    bool access_slow(std::uint64_t page);

    void unlink(std::uint32_t idx);
    void push_front(std::uint32_t idx);

    /// Empty-slot sentinel for the page table (no 4 KiB page maps to
    /// the all-ones page number within the simulated address space).
    static constexpr std::uint64_t kNoPage = ~0ull;

    static std::uint32_t
    hash_page(std::uint64_t page)
    {
        page *= 0x9E3779B97F4A7C15ull;
        return static_cast<std::uint32_t>(page >> 32);
    }

    void table_insert(std::uint64_t page, std::uint32_t idx);
    void table_erase(std::uint64_t page);

    std::vector<Entry> entries_;
    /// Open-addressing page->entry table, <= 25% load so probe chains
    /// stay short; a flat 4 KiB array beats a node-based map here.
    std::vector<std::uint64_t> slot_page_;
    std::vector<std::uint32_t> slot_idx_;
    std::uint32_t slot_mask_ = 0;
    std::uint32_t head_ = 0;  ///< most recently touched
    std::uint32_t tail_ = 0;  ///< least recently touched
    std::uint32_t fill_ = 0;  ///< next never-used entry index
};

/**
 * Three-level inclusive-allocation hierarchy with DDIO device writes.
 */
class CacheHierarchy {
  public:
    explicit CacheHierarchy(const CacheConfig &cfg = CacheConfig{});

    /**
     * Diagnostic hook invoked on every LLC *load* miss with the
     * missing line's address and the registered context pointer.
     * Statically bound (plain function pointer, no std::function
     * indirection on the per-line path); null (disabled) by default.
     */
    using LlcMissHook = void (*)(void *ctx, Addr line_addr);

    /**
     * Perform an access of @p size bytes at simulated address @p addr.
     * Accesses spanning multiple cache lines walk each line. The
     * returned latency components are summed over lines; @p level is
     * the deepest level touched.
     *
     * Inline fast path: single-line CPU loads/stores (the vast
     * majority of simulated accesses) resolve here; everything else
     * takes the out-of-line continuations in cache.cc.
     */
    AccessResult
    access(Addr addr, std::uint32_t size, AccessType type)
    {
        PMILL_ASSERT(size > 0, "zero-size access");
        const std::uint64_t first = line_of(addr);
        const std::uint64_t last = line_of(addr + size - 1);
        if (PMILL_LIKELY(first == last))
            return access_line(first, first / kLinesPerPage, type);
        return access_range(first, last, type);
    }

    /** Cumulative counters since construction (or last stats_reset). */
    const MemStats &stats() const { return stats_; }

    /** Snapshot-style reset of the counters (contents stay warm). */
    void stats_reset() { stats_ = MemStats{}; }

    /** Drop all cached state (cold caches). */
    void flush();

    const CacheConfig &config() const { return cfg_; }

    /** Install (or clear, with nullptr) the LLC load-miss hook. */
    void
    set_llc_miss_hook(LlcMissHook hook, void *ctx = nullptr)
    {
        miss_hook_ = hook;
        miss_ctx_ = ctx;
    }

    /**
     * NUMA home-socket probe: invoked on every DRAM fill with the
     * line's address; returns the home socket of that address.
     * Statically bound like the LLC-miss hook; null (disabled, the
     * default) keeps the single-socket model bit-identical.
     */
    using NumaProbe = std::uint32_t (*)(void *ctx, Addr line_addr);

    /** Install the NUMA probe and this hierarchy's own socket id. */
    void
    set_numa_probe(NumaProbe probe, void *ctx, std::uint32_t socket)
    {
        numa_probe_ = probe;
        numa_ctx_ = ctx;
        socket_ = socket;
    }

    std::uint32_t socket() const { return socket_; }

  private:
    /**
     * One line-granular walk. The L1-hit path is inline; misses and
     * device/prefetch accesses continue out of line.
     */
    AccessResult
    access_line(std::uint64_t line, std::uint64_t page, AccessType type)
    {
        if (PMILL_LIKELY(type == AccessType::kLoad ||
                         type == AccessType::kStore)) {
            AccessResult r;
            if (cfg_.tlb_enable && PMILL_UNLIKELY(!tlb_.access(page))) {
                ++stats_.tlb_misses;
                r.wall_ns += cfg_.tlb_miss_ns;
                ++r.tlb_misses;
            }
            const bool is_load = (type == AccessType::kLoad);
            if (is_load)
                ++stats_.loads;
            else
                ++stats_.stores;
            r.core_cycles += cfg_.l1_cycles;
            if (PMILL_LIKELY(l1_.lookup(line))) {
                r.level = HitLevel::kL1;
                return r;
            }
            return cpu_line_miss(line, is_load, r);
        }
        return device_line(line, type);
    }

    /** L1-miss continuation of the CPU load/store walk (cache.cc). */
    AccessResult cpu_line_miss(std::uint64_t line, bool is_load,
                               AccessResult r);

    /** DevWrite / DevRead / Prefetch walk (cache.cc). */
    AccessResult device_line(std::uint64_t line, AccessType type);

    /** Multi-line walk, line order preserved (cache.cc). */
    AccessResult access_range(std::uint64_t first, std::uint64_t last,
                              AccessType type);

    CacheConfig cfg_;
    CacheLevel l1_;
    CacheLevel l2_;
    CacheLevel llc_;
    TlbModel tlb_;
    MemStats stats_;
    LlcMissHook miss_hook_ = nullptr;
    void *miss_ctx_ = nullptr;
    NumaProbe numa_probe_ = nullptr;
    void *numa_ctx_ = nullptr;
    std::uint32_t socket_ = 0;
};

} // namespace pmill

#endif // PMILL_MEM_CACHE_HH
