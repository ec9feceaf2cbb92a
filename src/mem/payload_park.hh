/**
 * @file
 * Parked-payload arena for the Parking metadata model.
 *
 * At RX the NIC splits each frame: the header prefix is DMA'd into
 * the packet buffer as usual (DDIO), and the payload is "parked" in
 * this per-core arena with a DRAM-direct fill that never touches the
 * LLC. The pipeline then runs header-only; at TX the NIC gathers the
 * payload back out of the arena (see AccessType::kParkWrite /
 * kParkRead in src/mem/cache.hh for the cache semantics).
 *
 * Slots are addressed by *tickets*: 1-based slot handles carried
 * through the pipeline in Field::kParkTicket (0 = "no payload
 * parked"). The free list is LIFO, so allocation order — and with it
 * every simulated address the cache model sees — is deterministic.
 *
 * Lifecycle invariants (hard-asserted):
 *  - release() of a free slot panics (double-free);
 *  - parked == rejoined + dropped + outstanding at all times, with
 *    outstanding equal to the slots actually missing from the free
 *    list (leak detection; the engine asserts this after every run).
 */

#ifndef PMILL_MEM_PAYLOAD_PARK_HH
#define PMILL_MEM_PAYLOAD_PARK_HH

#include <cstdint>
#include <vector>

#include "src/common/log.hh"
#include "src/mem/sim_memory.hh"

namespace pmill {

/**
 * Where a frame's parked payload sits: @p len bytes at park-arena
 * address @p addr under @p ticket, with host backing @p host. All
 * zero when nothing is parked (every model but Parking).
 */
struct ParkRef {
    Addr addr = 0;
    std::uint32_t len = 0;
    std::uint32_t ticket = 0;
    const std::uint8_t *host = nullptr;
};

class PayloadPark {
  public:
    /** Lifecycle counters (see file comment for the invariant). */
    struct Stats {
        std::uint64_t parked = 0;    ///< tickets ever issued
        std::uint64_t rejoined = 0;  ///< released on the TX gather path
        std::uint64_t dropped = 0;   ///< released on a drop path
        std::uint32_t outstanding = 0;  ///< tickets currently live
        std::uint32_t capacity = 0;     ///< total slots
    };

    /**
     * Allocate @p slots slots of @p slot_bytes each from @p mem
     * (Region::kPayloadPark). Call under the owning core's
     * set_home_socket so the arena is NUMA-homed like the rest of the
     * core's pools.
     */
    PayloadPark(SimMemory &mem, std::uint32_t slots,
                std::uint32_t slot_bytes);

    PayloadPark(const PayloadPark &) = delete;
    PayloadPark &operator=(const PayloadPark &) = delete;

    /**
     * Park @p len payload bytes (host copy into the slot's backing
     * store). Returns the ticket. The caller is responsible for the
     * simulated kParkWrite charge; the arena only tracks lifecycle.
     * Panics when no slot is free — owners size the arena to the
     * in-flight-frame bound, so exhaustion is a sizing bug.
     */
    std::uint32_t park(const std::uint8_t *payload, std::uint32_t len);

    /**
     * Release @p ticket back to the free list. @p dropped selects the
     * drop counter instead of the rejoin counter. Double-free panics.
     */
    void release(std::uint32_t ticket, bool dropped);

    /** Simulated address of @p ticket 's slot. */
    Addr
    slot_addr(std::uint32_t ticket) const
    {
        return arena_.addr + slot_of(ticket) * std::uint64_t(slot_bytes_);
    }

    /** Host backing of @p ticket 's slot. */
    const std::uint8_t *
    slot_host(std::uint32_t ticket) const
    {
        return arena_.host + slot_of(ticket) * std::uint64_t(slot_bytes_);
    }

    std::uint32_t slot_bytes() const { return slot_bytes_; }

    Stats stats() const;

  private:
    std::uint32_t
    slot_of(std::uint32_t ticket) const
    {
        PMILL_ASSERT(ticket >= 1 && ticket <= capacity_,
                     "bad park ticket %u", ticket);
        return ticket - 1;
    }

    MemHandle arena_;
    std::uint32_t capacity_;
    std::uint32_t slot_bytes_;
    std::vector<std::uint32_t> free_;     ///< LIFO ticket free list
    std::vector<std::uint8_t> in_use_;    ///< per-slot live flag
    std::uint64_t parked_ = 0;
    std::uint64_t rejoined_ = 0;
    std::uint64_t dropped_ = 0;
};

} // namespace pmill

#endif // PMILL_MEM_PAYLOAD_PARK_HH
