/** @file Unit tests for register-file and cache port arbitration. */

#include <gtest/gtest.h>

#include "core/regfile_ports.hh"

namespace vpr
{
namespace
{

TEST(PortSchedule, ClaimsUpToLimit)
{
    PortSchedule ps(3);
    EXPECT_TRUE(ps.tryClaim(5));
    EXPECT_TRUE(ps.tryClaim(5));
    EXPECT_TRUE(ps.tryClaim(5));
    EXPECT_FALSE(ps.tryClaim(5));
    EXPECT_TRUE(ps.tryClaim(6));
    EXPECT_EQ(ps.used(5), 3u);
    EXPECT_EQ(ps.used(6), 1u);
}

TEST(PortSchedule, ClaimFirstFreeSlips)
{
    PortSchedule ps(1);
    EXPECT_EQ(ps.claimFirstFree(10), 10u);
    EXPECT_EQ(ps.claimFirstFree(10), 11u);
    EXPECT_EQ(ps.claimFirstFree(10), 12u);
}

TEST(PortSchedule, PruneDropsPast)
{
    PortSchedule ps(1);
    ps.tryClaim(5);
    ps.tryClaim(6);
    ps.pruneBefore(6);
    EXPECT_EQ(ps.used(5), 0u);
    EXPECT_EQ(ps.used(6), 1u);
}

TEST(PortSchedule, RingGrowsAcrossWideClaimSpans)
{
    // Two live claims a full ring period apart land in the same slot;
    // the ring must grow rather than collapse them into one counter.
    PortSchedule ps(1);
    EXPECT_TRUE(ps.tryClaim(5));
    EXPECT_TRUE(ps.tryClaim(5 + 4096));
    EXPECT_FALSE(ps.tryClaim(5));
    EXPECT_EQ(ps.used(5), 1u);
    EXPECT_EQ(ps.used(5 + 4096), 1u);
    EXPECT_FALSE(ps.tryClaim(5 + 4096));
}

TEST(PortSchedule, LappedSlotReadsFreeAfterPrune)
{
    // A slot owned by a pruned cycle must read as free for the cycle
    // that laps onto it — pruning is lazy, not eager.
    PortSchedule ps(2);
    EXPECT_TRUE(ps.tryClaim(3));
    EXPECT_TRUE(ps.tryClaim(3));
    ps.pruneBefore(5000);
    EXPECT_EQ(ps.used(3), 0u);
    // 5123 = 3 + 5*1024 shares cycle 3's slot in the initial ring.
    EXPECT_TRUE(ps.tryClaim(5123));
    EXPECT_TRUE(ps.tryClaim(5123));
    EXPECT_FALSE(ps.tryClaim(5123));
    EXPECT_EQ(ps.used(5123), 2u);
}

TEST(RegFilePorts, PaperPortCounts)
{
    RegFilePorts p(16, 8);
    EXPECT_EQ(p.readPortsPerCycle(), 16u);
    EXPECT_EQ(p.writePortsPerCycle(), 8u);
}

TEST(RegFilePorts, ReadsLimitedPerClassPerCycle)
{
    RegFilePorts p(4, 8);
    p.beginCycle(1);
    EXPECT_TRUE(p.tryClaimReads(2, 0));
    EXPECT_TRUE(p.tryClaimReads(2, 4));  // int full, fp has room
    EXPECT_FALSE(p.tryClaimReads(1, 0));
    EXPECT_FALSE(p.tryClaimReads(0, 1));
    p.beginCycle(2);
    EXPECT_TRUE(p.tryClaimReads(4, 4));
}

TEST(RegFilePorts, AtomicClaimAcrossClasses)
{
    RegFilePorts p(4, 8);
    p.beginCycle(1);
    p.tryClaimReads(3, 0);
    // 2 int + 1 fp: int side fails, nothing may be claimed at all.
    EXPECT_FALSE(p.tryClaimReads(2, 1));
    EXPECT_TRUE(p.canClaimReads(1, 1));
    EXPECT_TRUE(p.tryClaimReads(1, 1));
}

TEST(RegFilePorts, UnclaimRefunds)
{
    RegFilePorts p(2, 8);
    p.beginCycle(1);
    EXPECT_TRUE(p.tryClaimReads(2, 0));
    EXPECT_FALSE(p.tryClaimReads(1, 0));
    p.unclaimReads(2, 0);
    EXPECT_TRUE(p.tryClaimReads(1, 0));
}

TEST(RegFilePorts, WriteSchedulingSlipsPastFullCycles)
{
    RegFilePorts p(16, 2);
    p.beginCycle(1);
    EXPECT_EQ(p.scheduleWrite(RegClass::Int, 10), 10u);
    EXPECT_EQ(p.scheduleWrite(RegClass::Int, 10), 10u);
    EXPECT_EQ(p.scheduleWrite(RegClass::Int, 10), 11u);
    // The FP file has its own ports.
    EXPECT_EQ(p.scheduleWrite(RegClass::Float, 10), 10u);
}

TEST(RegFilePorts, BeginCycleRestoresReads)
{
    RegFilePorts p(1, 8);
    p.beginCycle(1);
    EXPECT_TRUE(p.tryClaimReads(1, 1));
    EXPECT_FALSE(p.tryClaimReads(1, 0));
    p.beginCycle(2);
    EXPECT_TRUE(p.tryClaimReads(1, 0));
}

} // namespace
} // namespace vpr
