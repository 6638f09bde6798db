/** @file Unit tests for the reorder buffer. */

#include <gtest/gtest.h>

#include "core/rob.hh"

namespace vpr
{
namespace
{

/** A ROB with its backing hot-state pool (allocate() binds the two). */
struct RobFixture
{
    explicit RobFixture(std::size_t entries) : hot(entries), rob(entries, hot)
    {
    }

    DynInst *
    alu(InstSeqNum seq)
    {
        DynInst *d = rob.allocate();
        d->si = StaticInst::alu(RegId::intReg(1), RegId::intReg(2),
                                RegId::intReg(3));
        d->setSeq(seq);
        return d;
    }

    InstHotPool hot;
    Rob rob;
};

TEST(Rob, InsertAndHeadTail)
{
    RobFixture f(4);
    f.alu(1);
    f.alu(2);
    EXPECT_EQ(f.rob.head().seq(), 1u);
    EXPECT_EQ(f.rob.tail().seq(), 2u);
    EXPECT_EQ(f.rob.size(), 2u);
}

TEST(Rob, PointersStableAcrossOtherOps)
{
    RobFixture f(4);
    DynInst *a = f.alu(1);
    DynInst *b = f.alu(2);
    f.alu(3);
    EXPECT_EQ(a->seq(), 1u);
    f.rob.commitHead();
    EXPECT_EQ(b->seq(), 2u);
    EXPECT_EQ(&f.rob.head(), b);
}

TEST(Rob, CommitHeadAdvances)
{
    RobFixture f(4);
    f.alu(1);
    f.alu(2);
    f.rob.commitHead();
    EXPECT_EQ(f.rob.head().seq(), 2u);
}

TEST(Rob, SquashTailWalk)
{
    RobFixture f(4);
    f.alu(1);
    f.alu(2);
    f.alu(3);
    // Paper-style recovery: pop from the newest down to the offender.
    while (!f.rob.empty() && f.rob.tail().seq() > 1)
        f.rob.squashTail();
    EXPECT_EQ(f.rob.size(), 1u);
    EXPECT_EQ(f.rob.tail().seq(), 1u);
}

TEST(Rob, FullWindow)
{
    RobFixture f(2);
    f.alu(1);
    EXPECT_FALSE(f.rob.full());
    f.alu(2);
    EXPECT_TRUE(f.rob.full());
    f.rob.commitHead();
    EXPECT_FALSE(f.rob.full());
}

TEST(Rob, PaperWindowSizeDefaultUsable)
{
    // The paper's 128-entry reorder buffer.
    RobFixture f(128);
    for (InstSeqNum i = 1; i <= 128; ++i)
        f.alu(i);
    EXPECT_TRUE(f.rob.full());
    EXPECT_EQ(f.rob.capacity(), 128u);
}

TEST(Rob, OccupancySampling)
{
    RobFixture f(16);
    f.alu(1);
    f.rob.sampleOccupancy();
    f.alu(2);
    f.rob.sampleOccupancy();
    EXPECT_EQ(f.rob.occupancyStat().samples(), 2u);
    EXPECT_DOUBLE_EQ(f.rob.occupancyStat().mean(), 1.5);
}

TEST(Rob, SlotReusedAfterSquashedStoreComesBackValueInitialised)
{
    // allocate() builds the entry in its slot; the slot's previous
    // occupant, a squashed store that had executed, must leave nothing
    // behind.
    RobFixture f(2);
    f.alu(1);
    DynInst *st = f.rob.allocate();
    st->si = StaticInst::store(RegId::intReg(4), RegId::intReg(5), 0x40);
    st->setSeq(2);
    st->executions = 2;
    st->addrReady = true;
    st->addrReadyCycle = 9;
    st->storeForwarded = true;
    st->physReg = 40;
    for (SrcOperand &src : st->src)
        src = SrcOperand{7, RegClass::Float, true, true};
    const HotIdx slot = st->slot;
    f.rob.squashTail();

    DynInst *d = f.rob.allocate();
    ASSERT_EQ(d, st);
    EXPECT_EQ(d->slot, slot);
    EXPECT_EQ(d->executions, 0u);
    EXPECT_FALSE(d->addrReady);
    EXPECT_EQ(d->addrReadyCycle, kNoCycle);
    EXPECT_FALSE(d->storeForwarded);
    EXPECT_EQ(d->physReg, kNoReg);
    EXPECT_FALSE(d->si.isStore());
    for (const SrcOperand &src : d->src) {
        EXPECT_FALSE(src.valid);
        EXPECT_FALSE(src.ready);
        EXPECT_EQ(src.tag, kNoReg);
    }
}

TEST(Rob, AtIndexesFromOldest)
{
    RobFixture f(4);
    f.alu(7);
    f.alu(8);
    f.rob.commitHead();
    f.alu(9);
    EXPECT_EQ(f.rob.at(0).seq(), 8u);
    EXPECT_EQ(f.rob.at(1).seq(), 9u);
}

TEST(Rob, AllocateBindsSlotAndResetsHotRow)
{
    RobFixture f(4);
    DynInst *a = f.alu(1);
    EXPECT_EQ(a->hot, &f.hot);
    EXPECT_NE(a->slot, kNoHotIdx);
    EXPECT_EQ(f.rob.headSlot(), a->slot);
    EXPECT_EQ(a->phase(), InstPhase::Renamed);
    EXPECT_EQ(a->fetchCycle(), kNoCycle);
    EXPECT_FALSE(a->inIq());
}

} // namespace
} // namespace vpr
