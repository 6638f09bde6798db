/**
 * @file
 * The L1↔L2 data bus.
 *
 * The paper assumes a 64-bit bus between L1 and L2, so moving one 32-byte
 * line occupies the bus for four cycles. The bus serializes transfers:
 * fills and dirty write-backs queue behind each other.
 */

#ifndef VPR_MEMORY_BUS_HH
#define VPR_MEMORY_BUS_HH

#include "common/types.hh"

namespace vpr
{

/** A single-master occupancy-modelled bus. */
class Bus
{
  public:
    /**
     * @param occupancyCycles cycles one line transfer holds the bus
     *        (paper: 32-byte line over 64-bit bus = 4 cycles).
     */
    explicit Bus(unsigned occupancyCycles = 4);

    /**
     * Claim the bus for one line transfer.
     *
     * @param earliest the first cycle the transfer could start.
     * @return the cycle the transfer actually starts (>= earliest).
     */
    Cycle acquire(Cycle earliest);

    /** First cycle a new transfer could currently start. */
    Cycle nextFreeCycle() const { return nextFree; }

    unsigned occupancy() const { return occCycles; }
    std::uint64_t transfers() const { return nTransfers; }

    /** Total cycles transfers spent waiting for the bus. */
    std::uint64_t queueingCycles() const { return nQueueing; }

    void reset();

  private:
    unsigned occCycles;
    Cycle nextFree = 0;
    std::uint64_t nTransfers = 0;
    std::uint64_t nQueueing = 0;
};

} // namespace vpr

#endif // VPR_MEMORY_BUS_HH
