/**
 * @file
 * Simulated physical memory.
 *
 * Every data structure whose cache behaviour matters — mbufs, packet
 * data buffers, metadata pools, NIC descriptor rings, element state,
 * lookup tables — is allocated from a SimMemory instance. Each
 * allocation receives a *simulated* address (fed to the cache
 * hierarchy model). alloc() also gives it host backing storage,
 * allocator-zeroed and faulted in on first touch (so the
 * packet-processing logic operates on real bytes, and the host pays
 * only for pages a run writes); reserve() places the same range
 * without any, for ranges whose host bytes nothing reads (rings and
 * counters the cache model only addresses) or whose host copy is laid
 * out differently from their simulated one (the LPM tbl24).
 *
 * Two allocation disciplines model the paper's §3.2.1 distinction:
 *  - contiguous (static arena / pools): densely packed, naturally
 *    cache- and TLB-friendly;
 *  - scattered (dynamic heap): each allocation lands on a fresh page
 *    with a pseudo-random intra-page offset, emulating the fragmented
 *    layout of config-time heap allocation in modular frameworks.
 */

#ifndef PMILL_MEM_SIM_MEMORY_HH
#define PMILL_MEM_SIM_MEMORY_HH

#include <cstdint>
#include <vector>

#include "src/common/random.hh"
#include "src/common/types.hh"
#include "src/common/zeroed.hh"

namespace pmill {

/** Classification of an allocation, for statistics and debugging. */
enum class Region : std::uint8_t {
    kStaticArena,   ///< Statically placed element state (PacketMill).
    kHeap,          ///< Dynamically allocated element state (vanilla).
    kMbufPool,      ///< DPDK-style mbuf metadata pool.
    kMetadataPool,  ///< Application packet-metadata pool.
    kPacketData,    ///< Raw packet data buffers (headroom + data).
    kDeviceRing,    ///< NIC descriptor / completion rings.
    kTable,         ///< Lookup tables (LPM, cuckoo hash).
    kScratch,       ///< Synthetic working sets (WorkPackage).
    kPayloadPark,   ///< Parked-payload arena (Parking model).
};

/**
 * Handle to one simulated allocation: the simulated base address used
 * for cache accounting and the host pointer used for real data access.
 */
struct MemHandle {
    Addr addr = 0;            ///< Simulated base address.
    std::uint8_t *host = nullptr;  ///< Host backing (nullptr if reserved).
    std::uint64_t size = 0;   ///< Allocation size in bytes.

    /** Simulated address of byte @p off within the allocation. */
    Addr at(std::uint64_t off) const { return addr + off; }

    /** True if the handle refers to a host-backed allocation. */
    explicit operator bool() const { return host != nullptr; }
};

/**
 * A flat simulated physical address space whose alloc() ranges are
 * host-backed and whose reserve() ranges are not.
 */
class SimMemory {
  public:
    SimMemory();

    SimMemory(const SimMemory &) = delete;
    SimMemory &operator=(const SimMemory &) = delete;

    /**
     * Allocate @p size bytes aligned to @p align (power of two),
     * contiguously after the previous allocation, with host backing
     * for code that reads the bytes. The backing is allocator-zeroed
     * and faulted in on first touch: a range above the allocator's
     * mmap threshold usually costs host memory only for the pages the
     * run writes. Throws std::bad_alloc when the host is out of memory.
     */
    MemHandle alloc(std::uint64_t size, std::uint64_t align, Region r);

    /**
     * Place a range exactly as alloc() would (same address, region and
     * socket tag, counted the same) but with no host backing: the
     * handle's host pointer is nullptr, and so is host_ptr() inside it.
     */
    MemHandle reserve(std::uint64_t size, std::uint64_t align, Region r);

    /**
     * Allocate with heap-like scatter: the allocation starts on a
     * fresh page plus a pseudo-random cache-line offset, and pages are
     * spread with pseudo-random gaps, emulating allocator
     * fragmentation at config-parse time.
     */
    MemHandle alloc_scattered(std::uint64_t size, Region r);

    /** Total simulated bytes allocated per region. */
    std::uint64_t allocated_bytes(Region r) const;

    /** Total simulated bytes allocated overall. */
    std::uint64_t total_allocated() const { return total_; }

    /**
     * Look up the host pointer backing simulated address @p a, or
     * nullptr when @p a was never allocated or was only reserved.
     * O(log n); prefer keeping the MemHandle instead.
     */
    std::uint8_t *host_ptr(Addr a);

    /**
     * Region that contains simulated address @p a (diagnostics, e.g.
     * LLC-miss attribution); kHeap when unmapped.
     */
    Region region_of(Addr a) const;

    /**
     * NUMA home socket for every *subsequent* allocation. The engine
     * sets this before building each core's pools so per-core memory
     * is tagged with the owning core's socket.
     */
    void set_home_socket(std::uint32_t socket) { home_socket_ = socket; }

    std::uint32_t home_socket() const { return home_socket_; }

    /**
     * Home socket of simulated address @p a (socket the backing
     * allocation was tagged with; 0 when unmapped). O(log n) — used
     * by the cache model's NUMA probe, which fires only on DRAM
     * fills, not on every access.
     */
    std::uint32_t socket_of(Addr a) const;

  private:
    struct Alloc {
        Addr base;
        std::uint64_t size;
        ZeroedArray<std::uint8_t> host;  // null when reserved
        Region region;
        std::uint32_t socket;
    };

    std::vector<Alloc> allocs_;  // sorted by base
    std::uint64_t region_bytes_[9] = {};
    std::uint64_t total_ = 0;
    Addr next_;
    Xorshift64 scatter_rng_;
    std::uint32_t home_socket_ = 0;
};

} // namespace pmill

#endif // PMILL_MEM_SIM_MEMORY_HH
