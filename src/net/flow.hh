/**
 * @file
 * Transport 5-tuples and the RSS-style hash used to spread flows
 * across receive queues / cores.
 */

#ifndef PMILL_NET_FLOW_HH
#define PMILL_NET_FLOW_HH

#include <cstdint>
#include <functional>

#include "src/net/headers.hh"

namespace pmill {

/** Transport-layer flow identity. */
struct FiveTuple {
    Ipv4Addr src_ip;
    Ipv4Addr dst_ip;
    std::uint16_t src_port = 0;
    std::uint16_t dst_port = 0;
    std::uint8_t proto = 0;
    /// Explicit zeroed padding so the struct has no indeterminate
    /// bytes and can be used as a raw-bytes hash-table key.
    std::uint8_t pad[3] = {0, 0, 0};

    bool
    operator==(const FiveTuple &o) const
    {
        return src_ip == o.src_ip && dst_ip == o.dst_ip &&
               src_port == o.src_port && dst_port == o.dst_port &&
               proto == o.proto;
    }
};

/**
 * Symmetric-quality 32-bit hash over the tuple, standing in for the
 * NIC's Toeplitz RSS hash. Deterministic and well-mixed so queue
 * assignment is stable and balanced.
 */
std::uint32_t rss_hash(const FiveTuple &t);

/**
 * Bucket count of every RSS indirection table (RETA): the NIC's and
 * the software steering fabric's. A frame's bucket is
 * `rss_hash & (kRssTableSize - 1)`; both tables start round-robin
 * (bucket i -> queue/core i % N), so an unprogrammed fabric agrees
 * with the NIC at every core count.
 */
inline constexpr std::uint32_t kRssTableSize = 256;

/** Hash a raw 64-bit value (finalizer used by tables as well). */
std::uint64_t mix64(std::uint64_t x);

} // namespace pmill

template <>
struct std::hash<pmill::FiveTuple> {
    std::size_t
    operator()(const pmill::FiveTuple &t) const noexcept
    {
        return pmill::rss_hash(t);
    }
};

#endif // PMILL_NET_FLOW_HH
