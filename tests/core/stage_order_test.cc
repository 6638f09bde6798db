/**
 * @file
 * Pipeline-order tests: Core calls the stages back to front (commit,
 * complete, issue, rename, then fetch), so instructions hand off
 * between stages, through the fetch buffer and the completion latch,
 * one cycle at a time; and branch recovery leaves every structure
 * consistent, its one ROB walk keeping the LSQ's and the IQ's counts
 * equal to the ROB's.
 */

#include <gtest/gtest.h>

#include "core/core.hh"
#include "trace/builder.hh"
#include "trace/kernels/kernels.hh"

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
    // the store issues for address generation and parks, and the
    // divide's broadcast hands it to the completion latch.
    TraceBuilder b;
    b.fpDiv(RegId::fpReg(1), RegId::fpReg(2), RegId::fpReg(3));
    b.store(RegId::fpReg(1), RegId::intReg(4), 0x8000);
    VectorTraceStream s(b.records());
    Core core(s, quietConfig());

    // Run until the store has issued (address part) but the divide has
    // not completed. The store is parked: Issued, its data operand
    // unready, and no completion event yet.
    for (int i = 0; i < 6; ++i)
        core.tick();
    ASSERT_EQ(core.rob().size(), 2u);
    const DynInst &divide = core.rob().at(0);
    const DynInst &store = core.rob().at(1);
    EXPECT_EQ(divide.phase(), InstPhase::Issued);
    EXPECT_EQ(store.phase(), InstPhase::Issued);
    EXPECT_FALSE(store.operandsReady());
    EXPECT_FALSE(core.hasPendingEvent(store.seq()));

    // The cycle the divide completes, its broadcast wakes the store and
    // the complete stage schedules the store's event.
    while (divide.phase() != InstPhase::Completed)
        core.tick();
    EXPECT_EQ(store.phase(), InstPhase::Issued);
    EXPECT_TRUE(store.operandsReady());
    EXPECT_TRUE(core.hasPendingEvent(store.seq()));

    while (core.tick()) {
    }
    EXPECT_EQ(core.committedInsts(), 2u);
}

TEST(StageOrder, SquashFansOutToStages)
{
    // Alternating-taken branches with wrong-path synthesis: recovery
    // must leave every structure consistent (this exercises the complete
    // stage's ROB walk and fetch redirect).
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

TEST(StageOrder, LsqAndIqFollowTheRobThroughSquashes)
{
    // The ROB is the only program-order list: the LSQ and the IQ keep
    // counts, and branch recovery's ROB walk removes each squashed
    // instruction from them. Under many mispredictions with wrong-path
    // memory operations, both counts must equal the ROB's own tally
    // after every cycle.
    CoreConfig cfg;
    cfg.scheme = RenameScheme::VPAllocAtWriteback;
    cfg.fetch.wrongPath = WrongPathMode::Synthesize;
    cfg.fetch.wrongPathMem = true;
    auto stream = makeBenchmarkStream("go");
    Core core(*stream, cfg);

    std::uint64_t wrongPathMem = 0;  // wrong-path memory entry-cycles
    while (core.committedInsts() < 20000 && core.tick()) {
        const Rob &rob = core.rob();
        std::size_t mem = 0, inIq = 0;
        for (std::size_t i = 0; i < rob.size(); ++i) {
            const DynInst &d = rob.at(i);
            mem += d.isMem();
            inIq += d.inIq();
            wrongPathMem += d.wrongPath && d.isMem();
        }
        ASSERT_EQ(core.lsq().size(), mem) << "cycle " << core.cycle();
        ASSERT_EQ(core.iq().size(), inIq) << "cycle " << core.cycle();
    }
    EXPECT_GE(core.committedInsts(), 20000u);
    EXPECT_GT(statsOf(core).counter("core.squashed"), 5000u);
    EXPECT_GT(wrongPathMem, 10000u);
}

} // namespace
} // namespace vpr
