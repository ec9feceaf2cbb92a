#include "src/mem/cache.hh"

#include <cstring>

#include "src/common/log.hh"

namespace pmill {

MemStats
MemStats::operator-(const MemStats &o) const
{
    MemStats d;
    d.loads = loads - o.loads;
    d.stores = stores - o.stores;
    d.l1_load_misses = l1_load_misses - o.l1_load_misses;
    d.l2_load_misses = l2_load_misses - o.l2_load_misses;
    d.llc_load_misses = llc_load_misses - o.llc_load_misses;
    d.l1_store_misses = l1_store_misses - o.l1_store_misses;
    d.l2_store_misses = l2_store_misses - o.l2_store_misses;
    d.llc_store_misses = llc_store_misses - o.llc_store_misses;
    d.dev_writes = dev_writes - o.dev_writes;
    d.dev_reads = dev_reads - o.dev_reads;
    d.dev_reads_dram = dev_reads_dram - o.dev_reads_dram;
    d.tlb_misses = tlb_misses - o.tlb_misses;
    d.prefetches = prefetches - o.prefetches;
    d.numa_remote_fills = numa_remote_fills - o.numa_remote_fills;
    d.park_fills = park_fills - o.park_fills;
    d.park_gathers = park_gathers - o.park_gathers;
    return d;
}

CacheLevel::CacheLevel(std::uint64_t size_bytes, std::uint32_t ways,
                       bool invalidate_filter)
    : ways_(ways)
{
    PMILL_ASSERT(ways > 0, "cache needs at least one way");
    PMILL_ASSERT(ways <= 16, "per-set way bitmasks hold 16 ways");
    std::uint64_t lines = size_bytes / kCacheLineBytes;
    sets_ = lines / ways;
    PMILL_ASSERT(is_pow2(sets_),
                 "cache set count must be a power of two (size %llu, "
                 "ways %u)",
                 static_cast<unsigned long long>(size_bytes), ways);
    set_mask_ = sets_ - 1;
    tag_shift_ = 0;
    while ((1ull << tag_shift_) < sets_)
        ++tag_shift_;
    // One cache-line-sized block per set: ways_ 32-bit tags + Meta.
    std::uint32_t bytes = ways_ * 4 + 16;
    stride_ = (bytes + 63) & ~63u;
    raw_ = make_zeroed<std::uint8_t>(sets_ * stride_ + 64);
    const std::uintptr_t p = reinterpret_cast<std::uintptr_t>(raw_.get());
    base_ = raw_.get() + ((64 - (p & 63)) & 63);
    if (invalidate_filter)
        sig_.assign(sets_, 0);
}

void
CacheLevel::resig(std::uint8_t *blk, std::uint64_t set)
{
    const std::uint32_t *tg = tags(blk);
    std::uint32_t vm = meta(blk).valid;
    std::uint64_t m = 0;
    while (vm) {
        const std::uint32_t w = static_cast<std::uint32_t>(
            __builtin_ctz(vm));
        vm &= vm - 1;
        m |= sig_bit(tg[w]);
    }
    sig_[set] = m;
}

bool
CacheLevel::lookup_scan(std::uint8_t *blk, std::uint64_t line)
{
    const std::uint32_t *tg = tags(blk);
    Meta &m = meta(blk);
    const std::uint32_t tag = stored_tag(line);
    // The MRU way (checked inline) just missed. Sets with two hot
    // lines alternate between the top recency slots, so probe the
    // second slot before the full walk.
    const std::uint64_t perm = get_perm(m);
    const std::uint32_t w2 = static_cast<std::uint32_t>((perm >> 4) & 0xF);
    if (tg[w2] == tag) {
        set_perm(m, perm_touch(perm, w2));
        return true;
    }
    // A line is inserted only when absent, so it matches at most one
    // way and the visit order of the valid-bit walk is immaterial.
    std::uint32_t vm = m.valid;
    while (vm) {
        const std::uint32_t w = static_cast<std::uint32_t>(
            __builtin_ctz(vm));
        vm &= vm - 1;
        if (tg[w] == tag) {
            set_perm(m, perm_touch(perm, w));
            return true;
        }
    }
    return false;
}

void
CacheLevel::insert(std::uint64_t line, std::uint32_t way_limit,
                   bool cpu_fill)
{
    std::uint8_t *blk = block(set_of(line));
    const std::uint32_t *tg = tags(blk);
    Meta &m = meta(blk);
    const std::uint32_t tag = stored_tag(line);

    // Already present (e.g.\ DevWrite to a CPU-resident line): refresh
    // recency and the demand-filled flag. MRU first — NIC descriptor
    // lines are rewritten back-to-back (8 descriptors per line), and
    // perm_touch of the MRU way is the identity.
    const std::uint32_t mru = static_cast<std::uint32_t>(m.perm & 0xF);
    if (PMILL_LIKELY(tg[mru] == tag)) {
        m.cpu = static_cast<std::uint16_t>(
            cpu_fill ? m.cpu | (1u << mru) : m.cpu & ~(1u << mru));
        return;
    }
    std::uint32_t vm = m.valid & ~(1u << mru);
    while (vm) {
        const std::uint32_t w = static_cast<std::uint32_t>(
            __builtin_ctz(vm));
        vm &= vm - 1;
        if (tg[w] == tag) {
            set_perm(m, perm_touch(get_perm(m), w));
            m.cpu = static_cast<std::uint16_t>(
                cpu_fill ? m.cpu | (1u << w) : m.cpu & ~(1u << w));
            return;
        }
    }

    insert_absent(line, way_limit, cpu_fill);
}

void
CacheLevel::insert_absent(std::uint64_t line, std::uint32_t way_limit,
                          bool cpu_fill)
{
    // Contract: the line is not present (the caller's lookup just
    // returned false, or insert()'s refresh scan found nothing), so
    // only victim selection remains.
    const std::uint64_t s = set_of(line);
    std::uint8_t *blk = block(s);
    Meta &m = meta(blk);
    const std::uint32_t limit =
        (way_limit == 0 || way_limit > ways_) ? ways_ : way_limit;
    const std::uint32_t limit_mask = (1u << limit) - 1u;
    PMILL_ASSERT((line >> tag_shift_) < 0xFFFFFFFFu,
                 "simulated address exceeds the 32-bit tag range");

    // Victim priority: invalid > LRU streaming line > LRU overall.
    // "First invalid way in index order" is ctz of the inverted valid
    // mask; the recency walks below only run with every candidate way
    // valid, exactly as in the reference scan (which breaks out at the
    // first invalid way). The LRU-most candidate in the permutation is
    // exactly the minimum-stamp candidate of the stamped model.
    const std::uint64_t perm = get_perm(m);
    std::uint32_t victim = 0;
    const std::uint32_t invalid = ~m.valid & limit_mask;
    if (invalid) {
        victim = static_cast<std::uint32_t>(__builtin_ctz(invalid));
    } else {
        std::uint32_t cand = ~m.cpu & limit_mask;
        if (!cand)
            cand = limit_mask;
        for (std::uint32_t i = ways_; i-- > 0;) {
            const std::uint32_t w =
                static_cast<std::uint32_t>((perm >> (4 * i)) & 0xF);
            if ((cand >> w) & 1u) {
                victim = w;
                break;
            }
        }
    }

    const std::uint32_t tag = stored_tag(line);
    tags(blk)[victim] = tag;
    m.valid = static_cast<std::uint16_t>(m.valid | (1u << victim));
    m.cpu = static_cast<std::uint16_t>(
        cpu_fill ? m.cpu | (1u << victim) : m.cpu & ~(1u << victim));
    set_perm(m, perm_touch(perm, victim));
    if (!sig_.empty()) {
        if (invalid)
            sig_[s] |= sig_bit(tag);
        else
            resig(blk, s);  // the evicted victim's tag left the set
    }
}

void
CacheLevel::invalidate(std::uint64_t line)
{
    const std::uint64_t s = set_of(line);
    const std::uint32_t tag = stored_tag(line);
    // Filtered miss: the signature covers every valid tag, so a clear
    // bit proves absence without touching the set block at all (the
    // common case — device writes land on lines the core caches never
    // loaded).
    if (!sig_.empty() && !(sig_[s] & sig_bit(tag)))
        return;
    std::uint8_t *blk = block(s);
    std::uint32_t *tg = tags(blk);
    Meta &m = meta(blk);
    std::uint32_t vm = m.valid;
    while (vm) {
        const std::uint32_t w = static_cast<std::uint32_t>(
            __builtin_ctz(vm));
        vm &= vm - 1;
        if (tg[w] == tag) {
            // The way keeps its recency slot; the invalid-first victim
            // rule reuses it (and re-MRUs it) on the next fill, just
            // as the stamped model reused the first invalid way.
            m.valid = static_cast<std::uint16_t>(m.valid & ~(1u << w));
            tg[w] = kInvalidTag;
            if (!sig_.empty())
                resig(blk, s);
            return;
        }
    }
}

void
CacheLevel::flush()
{
    std::memset(base_, 0, sets_ * stride_);  // all-zero is empty
    if (!sig_.empty())
        sig_.assign(sets_, 0);
}

TlbModel::TlbModel(std::uint32_t entries) : entries_(entries)
{
    std::uint32_t cap = 16;
    while (cap < entries * 4)
        cap <<= 1;
    slot_page_.assign(cap, kNoPage);
    slot_idx_.assign(cap, 0);
    slot_mask_ = cap - 1;
}

void
TlbModel::table_insert(std::uint64_t page, std::uint32_t idx)
{
    std::uint32_t i = hash_page(page) & slot_mask_;
    while (slot_page_[i] != kNoPage)
        i = (i + 1) & slot_mask_;
    slot_page_[i] = page;
    slot_idx_[i] = idx;
}

void
TlbModel::table_erase(std::uint64_t page)
{
    std::uint32_t i = hash_page(page) & slot_mask_;
    while (slot_page_[i] != page)
        i = (i + 1) & slot_mask_;
    // Backward-shift deletion: walk the probe chain and pull entries
    // whose home slot lies outside (i, j] back over the gap, so later
    // probes never hit a hole mid-chain.
    std::uint32_t j = i;
    for (;;) {
        slot_page_[i] = kNoPage;
        for (;;) {
            j = (j + 1) & slot_mask_;
            if (slot_page_[j] == kNoPage)
                return;
            const std::uint32_t h = hash_page(slot_page_[j]) & slot_mask_;
            const bool stays = (i <= j) ? (i < h && h <= j)
                                        : (i < h || h <= j);
            if (!stays)
                break;
        }
        slot_page_[i] = slot_page_[j];
        slot_idx_[i] = slot_idx_[j];
        i = j;
    }
}

void
TlbModel::unlink(std::uint32_t idx)
{
    // Callers never unlink the head, so e.prev is always a live link;
    // e.next is only dereferenced when idx is not the tail.
    const Entry &e = entries_[idx];
    entries_[e.prev].next = e.next;
    if (idx == tail_)
        tail_ = e.prev;
    else
        entries_[e.next].prev = e.prev;
}

void
TlbModel::push_front(std::uint32_t idx)
{
    Entry &e = entries_[idx];
    e.next = head_;
    entries_[head_].prev = idx;
    head_ = idx;
}

bool
TlbModel::access_slow(std::uint64_t page)
{
    // The inline head check just missed. Translation streams commonly
    // alternate between two pages (packet data vs.\ mbuf metadata), so
    // probe the second recency entry before paying for the hash find.
    // Linked entries are always valid; head_ != tail_ means there are
    // at least two of them.
    const Entry &h = entries_[head_];
    if (h.valid && head_ != tail_) {
        const std::uint32_t second = h.next;
        if (entries_[second].page == page) {
            unlink(second);
            push_front(second);
            return true;
        }
    }

    std::uint32_t probe = hash_page(page) & slot_mask_;
    while (slot_page_[probe] != kNoPage) {
        if (slot_page_[probe] == page) {
            // Hit somewhere behind the head: refresh recency, exactly
            // as the stamp update of the scanning model would.
            const std::uint32_t idx = slot_idx_[probe];
            if (idx != head_) {
                unlink(idx);
                push_front(idx);
            }
            return true;
        }
        probe = (probe + 1) & slot_mask_;
    }

    // Miss. Victim: first never-used entry in array order (== the
    // fill cursor), else the least-recently-touched (== list tail).
    std::uint32_t idx;
    if (fill_ < entries_.size()) {
        idx = fill_++;
        Entry &e = entries_[idx];
        e.valid = true;
        if (idx == 0) {
            head_ = tail_ = idx;
        } else {
            e.next = head_;
            entries_[head_].prev = idx;
            head_ = idx;
        }
    } else {
        idx = tail_;
        table_erase(entries_[idx].page);
        if (idx != head_) {
            unlink(idx);
            push_front(idx);
        }
    }
    entries_[idx].page = page;
    table_insert(page, idx);
    return false;
}

void
TlbModel::flush()
{
    for (auto &e : entries_)
        e = Entry{};
    slot_page_.assign(slot_page_.size(), kNoPage);
    head_ = tail_ = fill_ = 0;
}

CacheHierarchy::CacheHierarchy(const CacheConfig &cfg)
    : cfg_(cfg),
      l1_(cfg.l1_size, cfg.l1_ways, /*invalidate_filter=*/true),
      l2_(cfg.l2_size, cfg.l2_ways, /*invalidate_filter=*/true),
      llc_(cfg.llc_size, cfg.llc_ways),
      tlb_(cfg.tlb_entries)
{
}

AccessResult
CacheHierarchy::access_range(std::uint64_t first, std::uint64_t last,
                             AccessType type)
{
    AccessResult total;
    for (std::uint64_t ln = first; ln <= last; ++ln) {
        // Hide the host-cache miss on the next set block (the tag
        // arrays of the larger levels dwarf the host's L1/L2) behind
        // this line's model work.
        if (ln < last) {
            llc_.host_prefetch(ln + 1);
            if (type == AccessType::kDevWrite)
                l2_.host_prefetch(ln + 1);
        }
        AccessResult r = access_line(ln, ln / kLinesPerPage, type);
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

AccessResult
CacheHierarchy::cpu_line_miss(std::uint64_t line, bool is_load,
                              AccessResult r)
{
    if (is_load)
        ++stats_.l1_load_misses;
    else
        ++stats_.l1_store_misses;

    r.core_cycles += cfg_.l2_cycles;
    if (l2_.lookup(line)) {
        l1_.insert_absent(line);
        r.level = HitLevel::kL2;
        return r;
    }
    if (is_load)
        ++stats_.l2_load_misses;
    else
        ++stats_.l2_store_misses;

    r.wall_ns += cfg_.llc_ns;
    ++r.llc_trips;
    if (llc_.lookup(line)) {
        l2_.insert_absent(line);
        l1_.insert_absent(line);
        r.level = HitLevel::kLlc;
        return r;
    }
    if (is_load) {
        ++stats_.llc_load_misses;
        if (miss_hook_)
            miss_hook_(miss_ctx_, line * kCacheLineBytes);
    } else {
        ++stats_.llc_store_misses;
    }

    r.wall_ns += cfg_.dram_ns;
    ++r.dram_fills;
    if (PMILL_UNLIKELY(numa_probe_ != nullptr) &&
        numa_probe_(numa_ctx_, line * kCacheLineBytes) != socket_) {
        r.wall_ns += cfg_.numa_remote_ns;
        ++r.remote_fills;
        ++stats_.numa_remote_fills;
    }
    llc_.insert_absent(line);
    l2_.insert_absent(line);
    l1_.insert_absent(line);
    r.level = HitLevel::kDram;
    return r;
}

AccessResult
CacheHierarchy::device_line(std::uint64_t line, AccessType type)
{
    AccessResult r;
    switch (type) {
      case AccessType::kDevWrite: {
        ++stats_.dev_writes;
        // DDIO write: the line is updated/allocated in the LLC only,
        // restricted to the DDIO way mask; stale copies in the core
        // caches are invalidated (ownership moved to the IIO agent).
        l1_.invalidate(line);
        l2_.invalidate(line);
        llc_.insert(line, cfg_.ddio_ways, /*cpu_fill=*/false);
        r.level = HitLevel::kLlc;
        return r;
      }

      case AccessType::kPrefetch: {
        ++stats_.prefetches;
        // Fill the hierarchy without charging latency or demand-load
        // counters: issued far enough ahead that the pipeline hides it.
        if (!l1_.lookup(line)) {
            if (!l2_.lookup(line)) {
                if (!llc_.lookup(line))
                    llc_.insert_absent(line, 0, /*cpu_fill=*/false);
                l2_.insert_absent(line);
            }
            l1_.insert_absent(line);
        }
        r.level = HitLevel::kL1;
        return r;
      }

      case AccessType::kDevRead: {
        ++stats_.dev_reads;
        // DMA read for TX: served from LLC when resident, else DRAM.
        // No allocation on the read path.
        if (llc_.lookup(line)) {
            r.level = HitLevel::kLlc;
        } else {
            r.level = HitLevel::kDram;
            ++stats_.dev_reads_dram;
        }
        return r;
      }

      case AccessType::kParkWrite: {
        ++stats_.park_fills;
        // Parking a payload at RX goes straight to DRAM — unlike a
        // DDIO DevWrite it allocates nothing in the LLC, which is the
        // whole point: parked lines never evict the NF's working set.
        // Stale core copies (a recycled buffer's previous payload)
        // are invalidated like any device write.
        l1_.invalidate(line);
        l2_.invalidate(line);
        llc_.invalidate(line);
        r.level = HitLevel::kDram;
        return r;
      }

      case AccessType::kParkRead: {
        ++stats_.park_gathers;
        // TX DMA gather from the park arena. Normally DRAM (park
        // writes bypass the caches); LLC only if a core explicitly
        // materialized the payload in between. No allocation.
        if (llc_.lookup(line)) {
            r.level = HitLevel::kLlc;
        } else {
            r.level = HitLevel::kDram;
        }
        return r;
      }

      default:
        break;
    }
    panic("unreachable access type");
}

void
CacheHierarchy::flush()
{
    l1_.flush();
    l2_.flush();
    llc_.flush();
    tlb_.flush();
}

} // namespace pmill
