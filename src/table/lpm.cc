#include "src/table/lpm.hh"

#include <algorithm>

#include "src/common/log.hh"

namespace pmill {

void
NaiveLpm::add(const Route &r)
{
    for (auto &existing : routes_) {
        if (existing.prefix_len == r.prefix_len &&
            existing.prefix.value == r.prefix.value) {
            existing.next_hop = r.next_hop;
            return;
        }
    }
    routes_.push_back(r);
}

std::optional<std::uint16_t>
NaiveLpm::lookup(Ipv4Addr a) const
{
    std::optional<std::uint16_t> best;
    int best_len = -1;
    for (const auto &r : routes_) {
        const std::uint32_t mask =
            r.prefix_len == 0 ? 0 : ~0u << (32 - r.prefix_len);
        if ((a.value & mask) == (r.prefix.value & mask) &&
            r.prefix_len > best_len) {
            best = r.next_hop;
            best_len = r.prefix_len;
        }
    }
    return best;
}

Dir24_8::Dir24_8(SimMemory &mem, std::uint32_t max_tbl8_groups)
    : fill_(kChunks), chunks_(kChunks), max_groups_(max_tbl8_groups)
{
    tbl24_ = mem.reserve((std::uint64_t(1) << 24) * kSimEntryBytes,
                         kPageBytes, Region::kTable);
    tbl8_ = mem.reserve(std::uint64_t(max_tbl8_groups) * 256 * kSimEntryBytes,
                        kPageBytes, Region::kTable);
}

Dir24_8::Entry *
Dir24_8::materialise(std::uint32_t c)
{
    if (!chunks_[c]) {
        chunks_[c] = std::make_unique<Entry[]>(kChunkSlots);
        std::fill_n(chunks_[c].get(), kChunkSlots, fill_[c]);
    }
    return chunks_[c].get();
}

void
Dir24_8::cover(Entry &e, const Route &r)
{
    if (e.flags & kGroup) {
        // Slot spills into a tbl8: update its shorter entries.
        Entry *grp = &groups_[std::size_t(e.next_hop) * 256];
        for (std::uint32_t j = 0; j < 256; ++j)
            cover(grp[j], r);
    } else if (!(e.flags & kValid) || e.depth <= r.prefix_len) {
        e = Entry{r.next_hop, r.prefix_len, kValid};
    }
}

bool
Dir24_8::add(const Route &r)
{
    PMILL_ASSERT(r.prefix_len <= 32, "prefix length out of range");
    const std::uint32_t mask =
        r.prefix_len == 0 ? 0 : ~0u << (32 - r.prefix_len);
    const std::uint32_t net = r.prefix.value & mask;

    if (r.prefix_len <= 24) {
        // Cover every tbl24 slot of the prefix. A chunk the prefix
        // covers whole stays uniform: one write to its fill value (a
        // fill never points to a tbl8). A partly covered chunk is
        // materialised and covered slot by slot.
        const std::uint32_t first = net >> 8;
        const std::uint32_t last = first + (1u << (24 - r.prefix_len));
        for (std::uint32_t s = first; s < last;) {
            const std::uint32_t c = s / kChunkSlots;
            const std::uint32_t chunk_end = (c + 1) * kChunkSlots;
            if (!chunks_[c] && s + kChunkSlots <= last) {
                cover(fill_[c], r);
                s = chunk_end;
                continue;
            }
            Entry *chunk = materialise(c);
            for (const std::uint32_t end = std::min(last, chunk_end);
                 s < end; ++s)
                cover(chunk[s % kChunkSlots], r);
        }
        return true;
    }

    // Longer than /24: ensure the covering tbl24 slot points to a
    // tbl8 group, then fill the covered slots inside the group.
    const std::uint32_t slot24 = net >> 8;
    Entry &top = materialise(slot24 / kChunkSlots)[slot24 % kChunkSlots];
    if (!(top.flags & kGroup)) {
        const std::size_t g = groups_.size() / 256;
        if (g >= max_groups_)
            return false;
        // Seed the group with the previous (shorter) route, if any.
        groups_.resize(groups_.size() + 256, top);
        top = Entry{static_cast<std::uint16_t>(g), 24,
                    static_cast<std::uint8_t>(kValid | kGroup)};
    }

    Entry *grp = &groups_[std::size_t(top.next_hop) * 256];
    const std::uint32_t first = net & 0xFF;
    const std::uint32_t count = 1u << (32 - r.prefix_len);
    for (std::uint32_t j = 0; j < count; ++j)
        cover(grp[first + j], r);
    return true;
}

std::optional<std::uint16_t>
Dir24_8::lookup(Ipv4Addr a, AccessSink *sink,
                std::uint8_t *matched_depth) const
{
    const std::uint32_t slot24 = a.value >> 8;
    sink_load(sink, tbl24_.addr + std::uint64_t(slot24) * kSimEntryBytes,
              kAccountedEntryBytes);
    const Entry &e = tbl24(slot24);
    if (!(e.flags & kValid))
        return std::nullopt;
    if (!(e.flags & kGroup)) {
        if (matched_depth)
            *matched_depth = e.depth;
        return e.next_hop;
    }

    const std::uint64_t idx =
        std::uint64_t(e.next_hop) * 256 + (a.value & 0xFF);
    sink_load(sink, tbl8_.addr + idx * kSimEntryBytes, kAccountedEntryBytes);
    const Entry &e8 = groups_[idx];
    if (!(e8.flags & kValid))
        return std::nullopt;
    if (matched_depth)
        *matched_depth = e8.depth;
    return e8.next_hop;
}

std::uint64_t
Dir24_8::memory_bytes() const
{
    return tbl24_.size + tbl8_.size;
}

} // namespace pmill
