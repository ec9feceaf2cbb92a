/**
 * @file
 * Bucketized cuckoo hash table, modeled after DPDK's rte_hash (which
 * the paper's NAT configuration uses). Two candidate buckets per key,
 * several entries per bucket, displacement ("kick") chains on insert.
 *
 * The table's arrays live in SimMemory so lookups/inserts report
 * their touched cache lines through an AccessSink, making the NAT's
 * extra lookups and memory usage visible to the cache model exactly
 * as the paper describes (§A.3).
 */

#ifndef PMILL_TABLE_CUCKOO_HASH_HH
#define PMILL_TABLE_CUCKOO_HASH_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <utility>

#include "src/common/log.hh"
#include "src/common/types.hh"
#include "src/mem/access_sink.hh"
#include "src/mem/sim_memory.hh"
#include "src/net/flow.hh"

namespace pmill {

/** Pressure counters of one cuckoo table (monotonic since creation). */
struct CuckooStats {
    std::uint64_t inserts = 0;        ///< new keys placed
    std::uint64_t updates = 0;        ///< existing keys overwritten
    std::uint64_t failed_inserts = 0; ///< kick chain exhausted
    std::uint64_t displacements = 0;  ///< entries moved by kicks
    std::uint64_t erases = 0;
    std::uint32_t max_kick_chain = 0; ///< longest chain walked
};

/**
 * Cuckoo hash mapping a trivially copyable @p Key to a trivially
 * copyable @p Value.
 *
 * Displacement victims are a pure function of (key hash, kick depth,
 * table seed) — no ambient RNG state — so an insert sequence produces
 * bit-identical table layouts on every host and is replayable from a
 * seed.
 *
 * @tparam Key must contain no indeterminate padding bytes (pad
 *         explicitly and zero it), because hashing and equality
 *         operate on the raw object representation, as rte_hash does.
 */
template <typename Key, typename Value>
class CuckooHash {
  public:
    static constexpr std::uint32_t kEntriesPerBucket = 4;
    static constexpr std::uint32_t kMaxKicks = 128;

    /**
     * @param mem Simulated memory to place the bucket array in.
     * @param capacity_hint Expected maximum number of keys; the table
     *        sizes itself to keep load factor moderate.
     * @param seed Victim-selection seed (determinism domain).
     */
    CuckooHash(SimMemory &mem, std::uint32_t capacity_hint,
               std::uint64_t seed = 0x5EEDull)
        : seed_(seed)
    {
        std::uint64_t want_buckets =
            (std::uint64_t(capacity_hint) * 2) / kEntriesPerBucket + 1;
        num_buckets_ = 1;
        while (num_buckets_ < want_buckets)
            num_buckets_ <<= 1;
        // alloc() returns zeroed backing: every entry starts unused.
        storage_ = mem.alloc(num_buckets_ * sizeof(Bucket), kCacheLineBytes,
                             Region::kTable);
    }

    /**
     * Insert or update @p key -> @p value.
     * @return false when the table is full (kick chain exhausted).
     */
    bool
    insert(const Key &key, const Value &value, AccessSink *sink = nullptr)
    {
        const std::uint64_t h = hash_key(key);
        std::uint64_t b1 = bucket1(h);
        std::uint64_t b2 = bucket2(h, b1);

        if (update_in_bucket(b1, key, value, sink) ||
            update_in_bucket(b2, key, value, sink)) {
            ++stats_.updates;
            return true;
        }
        if (place_in_bucket(b1, key, value, sink) ||
            place_in_bucket(b2, key, value, sink)) {
            ++size_;
            ++stats_.inserts;
            return true;
        }

        // Displacement chain: evict a seeded-deterministic victim from
        // b1 and move it to its alternate bucket, repeating up to
        // kMaxKicks. Record each step so a dead-end chain can be
        // unwound — a failed insert leaves the table bit-identical to
        // before the call.
        std::pair<std::uint64_t, std::uint32_t> chain[kMaxKicks];
        Key cur_key = key;
        Value cur_val = value;
        std::uint64_t cur_h = h;
        std::uint64_t bucket = b1;
        for (std::uint32_t kick = 0; kick < kMaxKicks; ++kick) {
            const std::uint32_t slot = victim_slot(cur_h, kick);
            Entry &victim = bucket_at(bucket).entries[slot];
            sink_load(sink, entry_addr(bucket, slot), sizeof(Entry));

            Key evicted_key = victim.key;
            Value evicted_val = victim.value;
            victim.key = cur_key;
            victim.value = cur_val;
            sink_store(sink, entry_addr(bucket, slot), sizeof(Entry));
            chain[kick] = {bucket, slot};
            ++stats_.displacements;
            stats_.max_kick_chain =
                std::max(stats_.max_kick_chain, kick + 1);

            const std::uint64_t eh = hash_key(evicted_key);
            const std::uint64_t eb1 = bucket1(eh);
            const std::uint64_t eb2 = bucket2(eh, eb1);
            const std::uint64_t alt = (bucket == eb1) ? eb2 : eb1;
            if (place_in_bucket(alt, evicted_key, evicted_val, sink)) {
                ++size_;
                ++stats_.inserts;
                return true;
            }
            cur_key = evicted_key;
            cur_val = evicted_val;
            cur_h = eh;
            bucket = alt;
        }

        // Chain exhausted: unwind the swaps in reverse so every
        // pre-existing key keeps its slot and the new key is absent.
        for (std::uint32_t kick = kMaxKicks; kick-- > 0;) {
            Entry &e = bucket_at(chain[kick].first)
                           .entries[chain[kick].second];
            sink_load(sink, entry_addr(chain[kick].first,
                                       chain[kick].second),
                      sizeof(Entry));
            Key displaced_key = e.key;
            Value displaced_val = e.value;
            e.key = cur_key;
            e.value = cur_val;
            sink_store(sink, entry_addr(chain[kick].first,
                                        chain[kick].second),
                       sizeof(Entry));
            cur_key = displaced_key;
            cur_val = displaced_val;
        }
        ++stats_.failed_inserts;
        return false;
    }

    /** Look up @p key; nullopt when absent. */
    std::optional<Value>
    lookup(const Key &key, AccessSink *sink = nullptr) const
    {
        const std::uint64_t h = hash_key(key);
        const std::uint64_t b1 = bucket1(h);
        if (auto v = find_in_bucket(b1, key, sink))
            return v;
        return find_in_bucket(bucket2(h, b1), key, sink);
    }

    /** Remove @p key. @return true when it was present. */
    bool
    erase(const Key &key, AccessSink *sink = nullptr)
    {
        const std::uint64_t h = hash_key(key);
        const std::uint64_t b1 = bucket1(h);
        if (erase_in_bucket(b1, key, sink))
            return true;
        return erase_in_bucket(bucket2(h, b1), key, sink);
    }

    /** Number of stored keys. */
    std::uint64_t size() const { return size_; }

    /** Number of buckets (power of two). */
    std::uint64_t num_buckets() const { return num_buckets_; }

    /** Total entry slots (buckets x entries per bucket). */
    std::uint64_t capacity() const
    {
        return num_buckets_ * kEntriesPerBucket;
    }

    /** Fraction of entry slots occupied. */
    double
    load_factor() const
    {
        return static_cast<double>(size_) /
               static_cast<double>(capacity());
    }

    /** Bytes of simulated memory occupied by the bucket array. */
    std::uint64_t memory_bytes() const { return storage_.size; }

    /** Pressure counters (inserts, kicks, failures, erases). */
    const CuckooStats &stats() const { return stats_; }

  private:
    struct Entry {
        Key key;
        Value value;
        std::uint8_t occupied;
    };

    struct Bucket {
        Entry entries[kEntriesPerBucket];
    };

    static std::uint64_t
    hash_key(const Key &key)
    {
        // Byte-wise 64-bit FNV-1a, finalized with mix64. Keys are
        // trivially copyable so hashing raw bytes is well defined.
        const auto *p = reinterpret_cast<const std::uint8_t *>(&key);
        std::uint64_t h = 0xCBF29CE484222325ull;
        for (std::size_t i = 0; i < sizeof(Key); ++i) {
            h ^= p[i];
            h *= 0x100000001B3ull;
        }
        return mix64(h);
    }

    std::uint64_t bucket1(std::uint64_t h) const
    {
        return h & (num_buckets_ - 1);
    }

    std::uint64_t
    bucket2(std::uint64_t h, std::uint64_t b1) const
    {
        // Partial-key displacement hash (independent bits of h).
        return (b1 ^ mix64(h >> 32)) & (num_buckets_ - 1);
    }

    /**
     * Victim entry for a kick displacing the key hashing to @p h at
     * chain depth @p kick: a pure function of (hash, depth, seed), so
     * identical insert sequences build identical tables everywhere.
     */
    std::uint32_t
    victim_slot(std::uint64_t h, std::uint32_t kick) const
    {
        return static_cast<std::uint32_t>(
                   mix64(h ^ (seed_ +
                              0x9E3779B97F4A7C15ull * (kick + 1)))) &
               (kEntriesPerBucket - 1);
    }

    Bucket &
    bucket_at(std::uint64_t b) const
    {
        return reinterpret_cast<Bucket *>(storage_.host)[b];
    }

    Addr
    entry_addr(std::uint64_t b, std::uint32_t slot) const
    {
        return storage_.addr + b * sizeof(Bucket) + slot * sizeof(Entry);
    }

    std::optional<Value>
    find_in_bucket(std::uint64_t b, const Key &key, AccessSink *sink) const
    {
        // One bucket spans at most two cache lines; model a single
        // bucket-wide load (hardware compares tags within the lines).
        sink_load(sink, entry_addr(b, 0), sizeof(Bucket));
        const Bucket &bk = bucket_at(b);
        for (std::uint32_t s = 0; s < kEntriesPerBucket; ++s) {
            const Entry &e = bk.entries[s];
            if (e.occupied && key_eq(e.key, key))
                return e.value;
        }
        return std::nullopt;
    }

    bool
    update_in_bucket(std::uint64_t b, const Key &key, const Value &value,
                     AccessSink *sink)
    {
        sink_load(sink, entry_addr(b, 0), sizeof(Bucket));
        Bucket &bk = bucket_at(b);
        for (std::uint32_t s = 0; s < kEntriesPerBucket; ++s) {
            Entry &e = bk.entries[s];
            if (e.occupied && key_eq(e.key, key)) {
                e.value = value;
                sink_store(sink, entry_addr(b, s), sizeof(Entry));
                return true;
            }
        }
        return false;
    }

    bool
    place_in_bucket(std::uint64_t b, const Key &key, const Value &value,
                    AccessSink *sink)
    {
        Bucket &bk = bucket_at(b);
        for (std::uint32_t s = 0; s < kEntriesPerBucket; ++s) {
            Entry &e = bk.entries[s];
            if (!e.occupied) {
                e.key = key;
                e.value = value;
                e.occupied = 1;
                sink_store(sink, entry_addr(b, s), sizeof(Entry));
                return true;
            }
        }
        return false;
    }

    bool
    erase_in_bucket(std::uint64_t b, const Key &key, AccessSink *sink)
    {
        sink_load(sink, entry_addr(b, 0), sizeof(Bucket));
        Bucket &bk = bucket_at(b);
        for (std::uint32_t s = 0; s < kEntriesPerBucket; ++s) {
            Entry &e = bk.entries[s];
            if (e.occupied && key_eq(e.key, key)) {
                e.occupied = 0;
                sink_store(sink, entry_addr(b, s), sizeof(Entry));
                --size_;
                ++stats_.erases;
                return true;
            }
        }
        return false;
    }

    static bool
    key_eq(const Key &a, const Key &b)
    {
        return std::memcmp(&a, &b, sizeof(Key)) == 0;
    }

    MemHandle storage_;
    std::uint64_t num_buckets_ = 0;
    std::uint64_t size_ = 0;
    std::uint64_t seed_ = 0;
    CuckooStats stats_;
};

} // namespace pmill

#endif // PMILL_TABLE_CUCKOO_HASH_HH
