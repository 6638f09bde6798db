/**
 * @file
 * Parked stores through Core ticks: an issued store whose data operand
 * is still in flight waits in the CompletionQueue until the producer's
 * broadcast wakes it through the IQ's wait lists.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/core.hh"
#include "trace/builder.hh"

namespace vpr
{
namespace
{

/** The ROB entry holding sequence number @p seq, or nullptr. */
const DynInst *
findInRob(const Core &core, InstSeqNum seq)
{
    const Rob &rob = core.rob();
    for (std::size_t i = 0; i < rob.size(); ++i)
        if (rob.at(i).seq() == seq)
            return &rob.at(i);
    return nullptr;
}

TEST(ParkedStore, CompletesTheCycleAfterItsDataIsBroadcast)
{
    // A 67-cycle divide produces the data of a store whose address base
    // is ready at rename: the store issues on its address, parks on its
    // data, and completes at max(now + 1, addrReadyCycle) after the
    // divide's broadcast at cycle `now`.
    TraceBuilder b;
    b.div(RegId::intReg(1), RegId::intReg(2), RegId::intReg(3));
    b.store(RegId::intReg(1), RegId::intReg(4), 0x2000);
    auto stream = b.stream();
    CoreConfig cfg;
    cfg.fetch.wrongPath = WrongPathMode::Stall;
    Core core(*stream, cfg);

    Cycle divDone = kNoCycle, storeIssue = kNoCycle;
    Cycle storeAddrReady = kNoCycle, storeDone = kNoCycle;
    while (core.tick()) {
        const DynInst *div = findInRob(core, 1);
        if (div && div->phase() == InstPhase::Completed)
            divDone = div->completeCycle();
        const DynInst *st = findInRob(core, 2);
        if (st && st->phase() == InstPhase::Issued) {
            storeIssue = st->issueCycle();
            storeAddrReady = st->addrReadyCycle;
            EXPECT_TRUE(core.hasPendingEvent(2));  // parked
        }
        if (st && st->phase() == InstPhase::Completed)
            storeDone = st->completeCycle();
    }
    ASSERT_NE(divDone, kNoCycle);
    ASSERT_NE(storeDone, kNoCycle);
    ASSERT_LT(storeIssue, divDone) << "the store never parked";
    EXPECT_EQ(storeDone, std::max(divDone + 1, storeAddrReady));
    EXPECT_EQ(core.committedInsts(), 2u);
}

/** Run a trace in which wrong-path stores park behind a mispredicted
 *  branch with wrong-path synthesis seeded by @p seed, checking that no
 *  squashed parked store completes. @return the parked stores whose
 *  data a real-path instruction produces, so that its broadcast reaches
 *  their stale wait-list entries after the squash. */
std::size_t
runSquashedParkedStores(std::uint64_t seed)
{
    TraceBuilder b;
    // Slow set r1..r15: everything waits on one 67-cycle divide.
    b.div(RegId::intReg(1), RegId::intReg(30), RegId::intReg(31));
    for (std::uint16_t r = 2; r <= 15; ++r)
        b.alu(RegId::intReg(r), RegId::intReg(1));
    // The branch resolves after three dependent multiplies.
    b.mult(RegId::intReg(20), RegId::intReg(21), RegId::intReg(22));
    b.mult(RegId::intReg(20), RegId::intReg(20), RegId::intReg(22));
    b.mult(RegId::intReg(20), RegId::intReg(20), RegId::intReg(22));
    // Not taken: the weakly-taken counters mispredict it on first sight.
    // Few records follow, so most squashed ROB slots are not reused
    // before the divide broadcasts.
    b.branch(RegId::intReg(20), false, 0x9000);
    b.nop();
    b.nop();
    auto stream = b.stream();
    CoreConfig cfg;
    cfg.fetch.wrongPath = WrongPathMode::Synthesize;
    cfg.fetch.wrongPathMem = true;
    cfg.fetch.wrongPathSeed = seed;
    Core core(*stream, cfg);

    std::set<InstSeqNum> parked, fedByRealPath;
    Cycle lastParkedInRob = 0, divDone = kNoCycle;
    while (core.tick()) {
        const Rob &rob = core.rob();
        for (std::size_t i = 0; i < rob.size(); ++i) {
            const DynInst &d = rob.at(i);
            if (d.wrongPath && d.isStore() &&
                d.phase() == InstPhase::Issued && !d.operandsReady()) {
                parked.insert(d.seq());
                for (std::size_t j = 0; j < rob.size(); ++j) {
                    const DynInst &p = rob.at(j);
                    if (!p.wrongPath && p.hasDest() &&
                        p.destClass() == d.src[0].cls &&
                        p.wakeupTag == d.src[0].tag)
                        fedByRealPath.insert(d.seq());
                }
            }
            if (parked.count(d.seq()))
                lastParkedInRob = core.cycle();
        }
        const DynInst *div = findInRob(core, 1);
        if (div && div->phase() == InstPhase::Completed)
            divDone = div->completeCycle();
        for (InstSeqNum sn : parked) {
            if (!findInRob(core, sn)) {
                EXPECT_FALSE(core.hasPendingEvent(sn))
                    << "seed " << seed << " sn:" << sn;
            }
        }
    }
    EXPECT_NE(divDone, kNoCycle);
    if (!parked.empty()) {
        EXPECT_LT(lastParkedInRob, divDone)
            << "seed " << seed
            << ": the squash must come before the data broadcast";
    }
    EXPECT_EQ(core.committedInsts(), b.size());
    return fedByRealPath.size();
}

TEST(ParkedStore, SquashedParkedStoreNeverCompletes)
{
    // Wrong-path stores (wrong_path_mem) whose data register waits on
    // the slow divide park behind a mispredicted branch that resolves
    // long before the divide broadcasts. The broadcast must not wake
    // the squashed stores: no completion event is ever scheduled for
    // them. Which wrong-path stores park on a real-path value depends
    // on the synthesis seed, so several seeds run.
    std::size_t fed = 0;
    for (std::uint64_t seed = 1; seed <= 16; ++seed)
        fed += runSquashedParkedStores(seed);
    EXPECT_GE(fed, 4u) << "too few squashed stores see their broadcast";
}

} // namespace
} // namespace vpr
