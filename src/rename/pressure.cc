#include "rename/pressure.hh"

#include "common/logging.hh"

namespace vpr
{

PressureTracker::PressureTracker(std::size_t numPhysRegs,
                                 stats::Distribution *lifetimeDist)
    : allocCycle(numPhysRegs, kNoCycle), lifetime(lifetimeDist)
{
}

void
PressureTracker::onAlloc(PhysRegId reg, Cycle now)
{
    VPR_ASSERT(reg < allocCycle.size(), "bad phys reg ", reg);
    VPR_ASSERT(allocCycle[reg] == kNoCycle, "double alloc of reg ", reg);
    allocCycle[reg] = now;
    ++nBusy;
    if (nBusy > peak)
        peak = nBusy;
}

void
PressureTracker::onFree(PhysRegId reg, Cycle now)
{
    VPR_ASSERT(reg < allocCycle.size(), "bad phys reg ", reg);
    VPR_ASSERT(allocCycle[reg] != kNoCycle, "free of unallocated reg ",
               reg);
    VPR_ASSERT(now >= allocCycle[reg], "free before alloc");
    if (lifetime)
        lifetime->sample(now - allocCycle[reg]);
    allocCycle[reg] = kNoCycle;
    VPR_ASSERT(nBusy > 0, "busy underflow");
    --nBusy;
}

void
PressureTracker::reset(Cycle now)
{
    // Restart the integration: registers currently held are treated as
    // if allocated at the reset point so warm-up does not pollute stats.
    for (auto &c : allocCycle)
        if (c != kNoCycle)
            c = now;
    peak = nBusy;
}

} // namespace vpr
