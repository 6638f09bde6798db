/** @file Unit tests for the register-pressure tracker. */

#include <gtest/gtest.h>

#include "rename/pressure.hh"

namespace vpr
{
namespace
{

/** The lifetime distribution a tracker samples each hold time into. */
stats::Distribution
lifetimes()
{
    return stats::Distribution::evenBuckets("lifetime", "hold cycles", 0,
                                            255, 16);
}

TEST(Pressure, IntegratesHoldingTime)
{
    stats::Distribution life = lifetimes();
    PressureTracker p(8, &life);
    p.onAlloc(0, 10);
    p.onAlloc(1, 12);
    p.onFree(0, 30);   // held 20
    p.onFree(1, 42);   // held 30
    EXPECT_EQ(life.samples(), 2u);
    EXPECT_DOUBLE_EQ(life.mean(), 25.0);
    EXPECT_EQ(life.minSample(), 20u);
    EXPECT_EQ(life.maxSample(), 30u);
}

TEST(Pressure, TracksBusyAndPeak)
{
    PressureTracker p(8);
    EXPECT_EQ(p.busy(), 0u);
    p.onAlloc(0, 0);
    p.onAlloc(1, 0);
    p.onAlloc(2, 0);
    EXPECT_EQ(p.busy(), 3u);
    p.onFree(1, 5);
    EXPECT_EQ(p.busy(), 2u);
    EXPECT_EQ(p.peakBusy(), 3u);
}

TEST(Pressure, ReuseAfterFree)
{
    stats::Distribution life = lifetimes();
    PressureTracker p(4, &life);
    p.onAlloc(2, 0);
    p.onFree(2, 10);
    p.onAlloc(2, 20);
    p.onFree(2, 25);
    EXPECT_EQ(life.samples(), 2u);
    EXPECT_DOUBLE_EQ(life.mean(), 7.5);
}

TEST(Pressure, ResetRebasesLiveAllocations)
{
    // An interval reset restarts the tracker and, with the stats tree,
    // its lifetime distribution.
    stats::Distribution life = lifetimes();
    PressureTracker p(4, &life);
    p.onAlloc(0, 0);
    p.onAlloc(1, 0);
    p.onFree(1, 50);
    p.reset(100);
    life.reset();
    EXPECT_EQ(p.busy(), 1u);  // register 0 still held
    EXPECT_EQ(p.peakBusy(), 1u);
    // Register 0 now counts from the reset point.
    p.onFree(0, 110);
    EXPECT_EQ(life.samples(), 1u);
    EXPECT_DOUBLE_EQ(life.mean(), 10.0);
}

TEST(Pressure, ZeroWhenNothingCompleted)
{
    stats::Distribution life = lifetimes();
    PressureTracker p(4, &life);
    p.onAlloc(0, 0);
    EXPECT_EQ(life.samples(), 0u);
    EXPECT_DOUBLE_EQ(life.mean(), 0.0);
}

TEST(PressureDeath, DoubleAllocPanics)
{
    PressureTracker p(4);
    p.onAlloc(0, 0);
    EXPECT_DEATH(p.onAlloc(0, 1), "double alloc");
}

TEST(PressureDeath, FreeUnallocatedPanics)
{
    PressureTracker p(4);
    EXPECT_DEATH(p.onFree(0, 1), "unallocated");
}

TEST(PressureDeath, OutOfRangeRegPanics)
{
    PressureTracker p(4);
    EXPECT_DEATH(p.onAlloc(4, 0), "bad phys reg");
}

} // namespace
} // namespace vpr
