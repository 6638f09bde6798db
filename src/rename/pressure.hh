/**
 * @file
 * Register-pressure instrumentation.
 *
 * The paper quantifies register pressure as "the sum of the number of
 * cycles that a register is allocated for each produced value" (section
 * 3.1). This tracker integrates exactly that: every physical-register
 * allocation/free pair contributes its holding time. It also tracks the
 * instantaneous number of busy registers and its peak.
 */

#ifndef VPR_RENAME_PRESSURE_HH
#define VPR_RENAME_PRESSURE_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "isa/reg.hh"

namespace vpr
{

/** Tracks physical-register holding times for one register class. */
class PressureTracker
{
  public:
    /**
     * @param numPhysRegs registers in the class's file
     * @param lifetimeDist optional distribution sampled with the holding
     *        time (cycles) of every completed alloc/free pair
     */
    explicit PressureTracker(std::size_t numPhysRegs,
                             stats::Distribution *lifetimeDist = nullptr);

    /** A physical register was taken from the free pool. */
    void onAlloc(PhysRegId reg, Cycle now);

    /** A physical register was returned to the free pool. */
    void onFree(PhysRegId reg, Cycle now);

    /** Number of registers currently allocated. */
    std::size_t busy() const { return nBusy; }

    /** Largest number simultaneously allocated. */
    std::size_t peakBusy() const { return peak; }

    /** Total register-cycles over all completed allocations. */
    std::uint64_t totalHoldCycles() const { return holdCycles; }

    /** Number of completed alloc/free pairs. */
    std::uint64_t completedAllocations() const { return nFrees; }

    /** Mean holding time per value (cycles). */
    double
    meanHoldCycles() const
    {
        return nFrees ? static_cast<double>(holdCycles) /
                            static_cast<double>(nFrees)
                      : 0.0;
    }

    void reset(Cycle now);

  private:
    std::vector<Cycle> allocCycle;  ///< kNoCycle when free
    stats::Distribution *lifetime;  ///< may be null
    std::size_t nBusy = 0;
    std::size_t peak = 0;
    std::uint64_t holdCycles = 0;
    std::uint64_t nFrees = 0;
};

} // namespace vpr

#endif // VPR_RENAME_PRESSURE_HH
