/**
 * @file
 * Unit tests for the NRR reservation tracker — the paper's section 3.3
 * deadlock-avoidance predicate (PRR pointers + Reg/Used counters).
 */

#include <gtest/gtest.h>

#include "rename/reservation.hh"

namespace vpr
{
namespace
{

/** Destination writers the trackers below hold at most. */
constexpr std::size_t kWindow = 8;

TEST(Reservation, OldestNrrAreReserved)
{
    ReservationTracker t(2, kWindow);
    t.onRename(10);
    t.onRename(11);
    t.onRename(12);
    EXPECT_TRUE(t.isReserved(10));
    EXPECT_TRUE(t.isReserved(11));
    EXPECT_FALSE(t.isReserved(12));
    EXPECT_EQ(t.reservedCount(), 2u);
}

TEST(Reservation, ReservedSetSmallerThanNrrWhenFewInFlight)
{
    ReservationTracker t(4, kWindow);
    t.onRename(1);
    EXPECT_EQ(t.reservedCount(), 1u);
    EXPECT_TRUE(t.isReserved(1));
}

TEST(Reservation, ReservedAlwaysMayAllocateWithFreeRegs)
{
    ReservationTracker t(2, kWindow);
    t.onRename(1);
    t.onRename(2);
    t.onRename(3);
    EXPECT_TRUE(t.mayAllocate(1, 1));
    EXPECT_TRUE(t.mayAllocate(2, 1));
}

TEST(Reservation, NothingAllocatesWithZeroFree)
{
    ReservationTracker t(2, kWindow);
    t.onRename(1);
    EXPECT_FALSE(t.mayAllocate(1, 0));
}

TEST(Reservation, YoungerNeedsSlackBeyondReservation)
{
    // The paper's condition: free > NRR - Used for non-reserved.
    ReservationTracker t(2, kWindow);
    t.onRename(1);
    t.onRename(2);
    t.onRename(3);
    // Used = 0: instruction 3 needs free > 2.
    EXPECT_FALSE(t.mayAllocate(3, 1));
    EXPECT_FALSE(t.mayAllocate(3, 2));
    EXPECT_TRUE(t.mayAllocate(3, 3));
}

TEST(Reservation, UsedCounterRelaxesYoungerAllocation)
{
    ReservationTracker t(2, kWindow);
    t.onRename(1);
    t.onRename(2);
    t.onRename(3);
    t.onAllocate(1);
    EXPECT_EQ(t.usedInReserved(), 1u);
    // Now free > 2 - 1 suffices.
    EXPECT_TRUE(t.mayAllocate(3, 2));
    EXPECT_FALSE(t.mayAllocate(3, 1));
    t.onAllocate(2);
    EXPECT_TRUE(t.mayAllocate(3, 1));
}

TEST(Reservation, CommitAdvancesReservedWindow)
{
    ReservationTracker t(1, kWindow);
    t.onRename(1);
    t.onRename(2);
    t.onAllocate(1);
    t.onCommit(1);
    // Instruction 2 is now the oldest and becomes reserved.
    EXPECT_TRUE(t.isReserved(2));
    EXPECT_EQ(t.usedInReserved(), 0u);
}

TEST(Reservation, SquashRemovesYoungest)
{
    ReservationTracker t(2, kWindow);
    t.onRename(1);
    t.onRename(2);
    t.onRename(3);
    t.onSquash(3);
    EXPECT_EQ(t.inFlight(), 2u);
    t.onSquash(2);
    t.onSquash(1);
    EXPECT_TRUE(t.empty());
}

TEST(Reservation, PaperScenarioSequentialTail)
{
    // Section 3.3's NRR=1 example: with one reserved register the
    // machine still makes forward progress — the oldest instruction may
    // always allocate; younger ones need free > 1 - Used.
    ReservationTracker t(1, kWindow);
    for (InstSeqNum i = 1; i <= 5; ++i)
        t.onRename(i);
    EXPECT_TRUE(t.mayAllocate(1, 1));
    EXPECT_FALSE(t.mayAllocate(4, 1));
    EXPECT_TRUE(t.mayAllocate(4, 2));
    t.onAllocate(1);
    // The reserved instruction has its register: younger may drain the
    // remaining pool completely.
    EXPECT_TRUE(t.mayAllocate(4, 1));
}

TEST(Reservation, WindowWrapsAtItsBound)
{
    // The window is sized once, by the most writers that can be in
    // flight; commits and renames at that bound wrap it many times over
    // and keep the reserved set and the Used counter exact.
    ReservationTracker t(2, 4);
    for (InstSeqNum i = 1; i <= 4; ++i)
        t.onRename(i);
    for (InstSeqNum i = 5; i <= 40; ++i) {
        t.onAllocate(i - 3);
        EXPECT_EQ(t.usedInReserved(), i == 5 ? 1u : 2u) << "sn:" << i;
        t.onCommit(i - 4);
        t.onRename(i);
        EXPECT_EQ(t.inFlight(), 4u);
        EXPECT_TRUE(t.isReserved(i - 3));
        EXPECT_FALSE(t.isReserved(i - 1));
    }
}

TEST(ReservationDeath, ZeroNrrPanics)
{
    EXPECT_DEATH(ReservationTracker(0, kWindow), "NRR");
}

TEST(ReservationDeath, OutOfOrderRenamePanics)
{
    ReservationTracker t(2, kWindow);
    t.onRename(5);
    EXPECT_DEATH(t.onRename(3), "program order");
}

TEST(ReservationDeath, CommitOfNonOldestPanics)
{
    ReservationTracker t(2, kWindow);
    t.onRename(1);
    t.onRename(2);
    EXPECT_DEATH(t.onCommit(2), "non-oldest");
}

TEST(ReservationDeath, DoubleAllocatePanics)
{
    ReservationTracker t(2, kWindow);
    t.onRename(1);
    t.onAllocate(1);
    EXPECT_DEATH(t.onAllocate(1), "double allocation");
}

} // namespace
} // namespace vpr
