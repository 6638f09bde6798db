/**
 * @file
 * Unit tests for the reorder buffer, and for the slot reuse that the
 * scheduler's lazy-staleness idiom rests on: a record is a
 * (DynInst *, seq) pair, stale once the instruction no longer carries
 * that seq. That holds only if Rob::allocate() value-initialises a slot
 * when a younger instruction takes it, while a retired or squashed
 * entry stays a live object until then.
 */

#include <gtest/gtest.h>

#include <random>

#include "core/rob.hh"

namespace vpr
{
namespace
{

/** A ROB whose entries the tests fill through alu(). */
struct RobFixture
{
    explicit RobFixture(std::size_t entries) : rob(entries) {}

    DynInst *
    alu(InstSeqNum seq)
    {
        DynInst *d = rob.allocate();
        d->si = StaticInst::alu(RegId::intReg(1), RegId::intReg(2),
                                RegId::intReg(3));
        d->setSeq(seq);
        return d;
    }

    Rob rob;
};

/** Set every lifecycle field of @p d as an in-flight instruction
 *  would. */
void
dirtyAll(DynInst &d, InstSeqNum seq, Cycle base)
{
    d.setSeq(seq);
    d.setPhase(InstPhase::Issued);
    d.setLastHold(LoadHold::UnknownAddress);
    d.setInIq(true);
    d.setInReadyQ(true);
    d.setFetchCycle(base);
    d.setRenameCycle(base + 1);
    d.setIssueCycle(base + 4);
    d.setCompleteCycle(base + 9);
    d.setCommitCycle(base + 11);
}

/** @p d is as allocate() must hand out every entry, whatever the
 *  slot's previous occupant did. */
void
expectFresh(const DynInst &d)
{
    EXPECT_EQ(d.seq(), 0u);
    EXPECT_EQ(d.phase(), InstPhase::Renamed);
    EXPECT_EQ(d.lastHold(), LoadHold::Ready);
    EXPECT_FALSE(d.inIq());
    EXPECT_FALSE(d.inReadyQ());
    EXPECT_EQ(d.fetchCycle(), kNoCycle);
    EXPECT_EQ(d.renameCycle(), kNoCycle);
    EXPECT_EQ(d.issueCycle(), kNoCycle);
    EXPECT_EQ(d.completeCycle(), kNoCycle);
    EXPECT_EQ(d.commitCycle(), kNoCycle);
}

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
    f.rob.squashTail();

    DynInst *d = f.rob.allocate();
    ASSERT_EQ(d, st);
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

TEST(Rob, AllocateValueInitialisesTheEntry)
{
    RobFixture f(4);
    const DynInst *a = f.rob.allocate();
    EXPECT_EQ(&f.rob.head(), a);
    expectFresh(*a);
}

TEST(RobSlotReuse, AllocateResetsTheRowAfterSquash)
{
    Rob rob(4);
    for (InstSeqNum sn = 1; sn <= 4; ++sn)
        dirtyAll(*rob.allocate(), sn, sn * 10);
    ASSERT_TRUE(rob.full());
    // A record of sn:3, whose slot the next allocation after the walk
    // reuses.
    const ReadyRef squashed = rob.at(2).ref();

    // The recovery walk squashes the two youngest. Their entries are
    // not reset here: staleness comes from allocate(), so until the
    // slot is reused the record still matches.
    rob.squashTail();
    rob.squashTail();
    EXPECT_EQ(rob.size(), 2u);
    EXPECT_EQ(squashed.inst->seq(), squashed.seq);

    // A younger instruction reuses the slot: a completely fresh entry.
    DynInst *d = rob.allocate();
    ASSERT_EQ(d, squashed.inst);
    expectFresh(*d);
    EXPECT_NE(squashed.inst->seq(), squashed.seq);
    d->setSeq(5);
    EXPECT_NE(squashed.inst->seq(), squashed.seq)
        << "old records stay stale";
}

TEST(RobSlotReuse, CommitSquashChurnKeepsRowsFresh)
{
    // Randomized churn: allocate/commit/squash for thousands of steps
    // over a small ROB so every slot is reused many times, checking on
    // each allocation that the entry is value-initialised and that a
    // record taken of the slot's previous occupant reads as stale.
    Rob rob(8);
    std::mt19937 rng(1234);
    InstSeqNum nextSeq = 0;

    for (int step = 0; step < 20000; ++step) {
        unsigned action = rng() % 3;
        if (action == 0 && !rob.full()) {
            DynInst *d = rob.allocate();
            ASSERT_EQ(d->seq(), 0u) << "step " << step;
            ASSERT_EQ(d->phase(), InstPhase::Renamed);
            ASSERT_FALSE(d->inIq());
            ASSERT_FALSE(d->inReadyQ());
            ASSERT_EQ(d->lastHold(), LoadHold::Ready);
            ASSERT_EQ(d->fetchCycle(), kNoCycle);
            ASSERT_EQ(d->commitCycle(), kNoCycle);
            dirtyAll(*d, ++nextSeq, static_cast<Cycle>(step));
        } else if (action == 1 && !rob.empty()) {
            const ReadyRef gone = rob.head().ref();
            rob.commitHead();
            // Until the slot is reallocated the record still matches:
            // staleness comes from allocate(), and commit-path records
            // are dropped eagerly, so nothing reads it.
            ASSERT_EQ(gone.inst->seq(), gone.seq);
        } else if (action == 2 && !rob.empty()) {
            const ReadyRef gone = rob.tail().ref();
            rob.squashTail();
            ASSERT_EQ(gone.inst->seq(), gone.seq);
            // A stale completion event for the squashed instruction
            // re-checks its seq; it must miss once the slot is reused.
            if (!rob.full()) {
                DynInst *d = rob.allocate();
                ASSERT_EQ(d, gone.inst);
                ASSERT_NE(gone.inst->seq(), gone.seq)
                    << "step " << step << " sn:" << gone.seq;
                dirtyAll(*d, ++nextSeq, static_cast<Cycle>(step));
            }
        }
    }
}

} // namespace
} // namespace vpr
