/**
 * @file
 * Pipeline-order tests: Core calls the stages back to front (commit,
 * complete, issue, rename, then fetch), so instructions hand off
 * between stages, through the fetch buffer and the completion latch,
 * one cycle at a time; and branch recovery leaves every structure
 * consistent.
 */

#include <gtest/gtest.h>

#include "core/core.hh"
#include "trace/builder.hh"

#include "../support/core_stats.hh"

namespace vpr
{
namespace
{

using test::statsOf;

CoreConfig
quietConfig()
{
    CoreConfig cfg;
    cfg.scheme = RenameScheme::Conventional;
    cfg.fetch.wrongPath = WrongPathMode::Stall;
    cfg.rename.numVPRegs =
        static_cast<std::uint16_t>(kNumLogicalRegs + cfg.robSize);
    return cfg;
}

TEST(StageOrder, ThreeInstructionWindowAdvancesOneStagePerCycle)
{
    // Three independent single-cycle ALU ops. Because the stages tick
    // back to front, an instruction can never skip a stage within one
    // cycle: fetched in cycle 1, renamed in 2, issued in 3, completed
    // in 4, committed in 5.
    TraceBuilder b;
    for (int i = 0; i < 3; ++i)
        b.alu(RegId::intReg(i + 1), RegId::intReg(10), RegId::intReg(11));
    VectorTraceStream s(b.records());
    Core core(s, quietConfig());

    // Cycle 1: fetch fills the buffer; rename ran first and saw nothing.
    core.tick();
    EXPECT_TRUE(core.fetchUnit().hasInst());
    EXPECT_EQ(core.rob().size(), 0u);

    // Cycle 2: rename drains the fetch buffer into ROB/IQ; issue ran
    // earlier this cycle, so nothing has issued yet.
    core.tick();
    ASSERT_EQ(core.rob().size(), 3u);
    EXPECT_EQ(core.iq().size(), 3u);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(core.rob().at(i).phase(), InstPhase::Renamed);
    EXPECT_EQ(statsOf(core).counter("issue.issued"), 0u);

    // Cycle 3: issue selects all three; their completion events now sit
    // in the issue→complete latch.
    core.tick();
    EXPECT_EQ(statsOf(core).counter("issue.issued"), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(core.rob().at(i).phase(), InstPhase::Issued);
        EXPECT_TRUE(core.hasPendingEvent(core.rob().at(i).seq()));
    }
    EXPECT_TRUE(core.iq().empty());

    // Cycle 4: the latch hands the events to the complete stage; commit
    // ran before complete this cycle, so nothing has retired yet.
    core.tick();
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(core.rob().at(i).phase(), InstPhase::Completed);
        EXPECT_FALSE(core.hasPendingEvent(core.rob().at(i).seq()));
    }
    EXPECT_EQ(core.committedInsts(), 0u);

    // Cycle 5: commit retires the window.
    core.tick();
    EXPECT_EQ(core.committedInsts(), 3u);
    EXPECT_TRUE(core.rob().empty());
    EXPECT_TRUE(core.done());
}

TEST(StageOrder, StoreDataHandsOffThroughCompletionLatch)
{
    // A store whose data operand is produced by a long-latency divide:
    // the store issues for address generation, parks in the completion
    // latch, and completes only after the divide's broadcast.
    TraceBuilder b;
    b.fpDiv(RegId::fpReg(1), RegId::fpReg(2), RegId::fpReg(3));
    b.store(RegId::fpReg(1), RegId::intReg(4), 0x8000);
    VectorTraceStream s(b.records());
    Core core(s, quietConfig());

    // Run until the store has issued (address part) but the divide has
    // not completed; the store must be parked, i.e. have a pending
    // event association without being Completed.
    for (int i = 0; i < 6; ++i)
        core.tick();
    ASSERT_EQ(core.rob().size(), 2u);
    const DynInst &divide = core.rob().at(0);
    const DynInst &store = core.rob().at(1);
    EXPECT_EQ(divide.phase(), InstPhase::Issued);
    EXPECT_EQ(store.phase(), InstPhase::Issued);
    EXPECT_TRUE(core.hasPendingEvent(store.seq()));

    while (core.tick()) {
    }
    EXPECT_EQ(core.committedInsts(), 2u);
}

TEST(StageOrder, SquashFansOutToStages)
{
    // Alternating-taken branches with wrong-path synthesis: recovery
    // must leave every structure consistent (this exercises the complete
    // stage's recovery walk, parked-store squash and fetch redirect).
    TraceBuilder b;
    for (int i = 0; i < 100; ++i) {
        b.alu(RegId::intReg(1), RegId::intReg(1), RegId::intReg(2));
        b.branch(RegId::intReg(1), i % 2 == 0, 0x9000);
    }
    CoreConfig cfg = quietConfig();
    cfg.fetch.wrongPath = WrongPathMode::Synthesize;
    cfg.invariantChecks = true;
    VectorTraceStream s(b.records());
    Core core(s, cfg);
    while (core.tick()) {
    }
    EXPECT_EQ(core.committedInsts(), 200u);
    EXPECT_GT(statsOf(core).counter("core.squashed"), 0u);
    EXPECT_TRUE(core.iq().empty());
    EXPECT_TRUE(core.lsq().empty());
    core.renamer().checkInvariants();
}

} // namespace
} // namespace vpr
