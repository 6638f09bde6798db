/**
 * @file
 * The issue stage's handling of the VP issue gate (paper §3.3): an
 * instruction the gate refuses is parked until the gate could admit
 * it, and it must still issue in exactly the cycle it issued in when
 * every refused instruction was retried each cycle.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/core.hh"
#include "rename/virtual_physical.hh"
#include "trace/builder.hh"

namespace vpr
{
namespace
{

/** VP issue allocation with four spare registers per class, NRR 1 for
 *  the integer file and 2 for the FP file. */
CoreConfig
scarceConfig()
{
    CoreConfig cfg;
    cfg.scheme = RenameScheme::VPAllocAtIssue;
    cfg.fetch.wrongPath = WrongPathMode::Stall;
    cfg.rename.numPhysRegs = kNumLogicalRegs + 4;
    cfg.rename.numVPRegs =
        static_cast<std::uint16_t>(kNumLogicalRegs + cfg.robSize);
    cfg.rename.nrrInt = 1;
    cfg.rename.nrrFp = 2;
    return cfg;
}

/** Long-latency heads (a divide, an FP divide, a missing load) with
 *  independent producers behind them: the young producers exhaust the
 *  four spare registers and the rest wait at the gate for commits. */
std::vector<TraceRecord>
pressureTrace()
{
    TraceBuilder b;
    for (int round = 0; round < 3; ++round) {
        b.div(RegId::intReg(1), RegId::intReg(20), RegId::intReg(21));
        b.fpDiv(RegId::fpReg(1), RegId::fpReg(20), RegId::fpReg(21));
        for (int i = 2; i < 10; ++i) {
            b.alu(RegId::intReg(i), RegId::intReg(20), RegId::intReg(21));
            b.fpAdd(RegId::fpReg(i), RegId::fpReg(20), RegId::fpReg(21));
        }
        b.load(RegId::intReg(11), RegId::intReg(20),
               0x100000 + 0x10000 * static_cast<Addr>(round));
        b.alu(RegId::intReg(12), RegId::intReg(11), RegId::intReg(1));
        b.fpAdd(RegId::fpReg(12), RegId::fpReg(1), RegId::fpReg(2));
    }
    return b.records();
}

TEST(IssueGate, RefusedInstructionsIssueInTheirRetriedCycles)
{
    VectorTraceStream s(pressureTrace());
    Core core(s, scarceConfig());

    // Issue cycle of every instruction, by sequence number.
    std::map<InstSeqNum, Cycle> issued;
    for (int cycle = 0; cycle < 2000 && core.tick(); ++cycle)
        for (std::size_t i = 0; i < core.rob().size(); ++i) {
            const DynInst &d = core.rob().at(i);
            if (d.issueCycle() != kNoCycle)
                issued.emplace(d.seq(), d.issueCycle());
        }
    ASSERT_FALSE(core.tick()) << "trace did not drain";

    std::vector<Cycle> stamps;
    for (const auto &[seq, cycle] : issued)
        stamps.push_back(cycle);
    // Recorded when every refused instruction was re-attempted each
    // cycle, before refusals were parked.
    const std::vector<Cycle> expected = {
        3,   3,   3,   3,   3,   3,   3,   3,   72,  72,  72,  72,  72,
        72,  75,  78,  78,  78,  72,  127, 78,  78,  72,  78,  84,  84,
        84,  130, 130, 147, 147, 147, 147, 147, 147, 150, 153, 153, 153,
        147, 202, 153, 153, 147, 153, 159, 159, 159, 205, 205, 222, 222,
        222, 222, 222, 222, 225, 223, 228, 228, 222, 275, 228};
    EXPECT_EQ(stamps, expected);

    // The gate did refuse registers.
    const auto &vp =
        dynamic_cast<const VirtualPhysicalRename &>(core.renamer());
    EXPECT_GT(vp.issueRejections(), 0u);
}

} // namespace
} // namespace vpr
