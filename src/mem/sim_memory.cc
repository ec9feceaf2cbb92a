#include "src/mem/sim_memory.hh"

#include <algorithm>

#include "src/common/log.hh"

namespace pmill {

SimMemory::SimMemory()
    : next_(0x100000),  // leave the first MiB unused (catches addr 0 bugs)
      scatter_rng_(0xC0FFEEull)
{
}

MemHandle
SimMemory::reserve(std::uint64_t size, std::uint64_t align, Region r)
{
    PMILL_ASSERT(size > 0, "zero-size allocation");
    PMILL_ASSERT(is_pow2(align), "alignment must be a power of two");
    Addr base = round_up(next_, align);
    next_ = base + size;

    allocs_.push_back(Alloc{base, size, nullptr, r, home_socket_});
    region_bytes_[static_cast<std::size_t>(r)] += size;
    total_ += size;
    return MemHandle{base, nullptr, size};
}

MemHandle
SimMemory::alloc(std::uint64_t size, std::uint64_t align, Region r)
{
    MemHandle h = reserve(size, align, r);
    allocs_.back().host = make_zeroed<std::uint8_t>(size);
    h.host = allocs_.back().host.get();
    return h;
}

MemHandle
SimMemory::alloc_scattered(std::uint64_t size, Region r)
{
    // Skip 1..8 pages, then land at a random cache-line offset within
    // the page: successive config-time heap allocations are neither
    // adjacent nor identically aligned.
    const std::uint64_t gap_pages = 1 + scatter_rng_.next_below(8);
    const std::uint64_t line_off =
        scatter_rng_.next_below(kPageBytes / kCacheLineBytes) *
        kCacheLineBytes;
    next_ = round_up(next_, kPageBytes) + gap_pages * kPageBytes + line_off;
    return alloc(size, kCacheLineBytes, r);
}

std::uint64_t
SimMemory::allocated_bytes(Region r) const
{
    return region_bytes_[static_cast<std::size_t>(r)];
}

Region
SimMemory::region_of(Addr a) const
{
    auto it = std::upper_bound(
        allocs_.begin(), allocs_.end(), a,
        [](Addr addr, const Alloc &al) { return addr < al.base; });
    if (it == allocs_.begin())
        return Region::kHeap;
    --it;
    if (a >= it->base + it->size)
        return Region::kHeap;
    return it->region;
}

std::uint32_t
SimMemory::socket_of(Addr a) const
{
    auto it = std::upper_bound(
        allocs_.begin(), allocs_.end(), a,
        [](Addr addr, const Alloc &al) { return addr < al.base; });
    if (it == allocs_.begin())
        return 0;
    --it;
    if (a >= it->base + it->size)
        return 0;
    return it->socket;
}

std::uint8_t *
SimMemory::host_ptr(Addr a)
{
    // allocs_ is sorted by base because next_ only grows.
    auto it = std::upper_bound(
        allocs_.begin(), allocs_.end(), a,
        [](Addr addr, const Alloc &al) { return addr < al.base; });
    if (it == allocs_.begin())
        return nullptr;
    --it;
    if (a >= it->base + it->size || !it->host)
        return nullptr;
    return it->host.get() + (a - it->base);
}

} // namespace pmill
