/**
 * @file
 * Deadlock-freedom property (paper section 3.3): for any legal NRR in
 * [1, NPR - NLR], any physical-register count and both allocation
 * policies, the machine always makes forward progress. The Core panics
 * if nothing commits for 200,000 cycles, so simply running
 * each configuration to a commit target is the property check. The
 * renamer's structural invariants are verified every 64 cycles.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "sim/experiment.hh"
#include "trace/kernels/kernels.hh"

namespace vpr
{
namespace
{

using Param = std::tuple<RenameScheme, int /*physRegs*/, int /*nrr*/,
                         std::string /*bench*/>;

class DeadlockFreedom : public ::testing::TestWithParam<Param>
{
};

TEST_P(DeadlockFreedom, MakesForwardProgress)
{
    auto [scheme, physRegs, nrr, bench] = GetParam();
    SimConfig c = paperConfig();
    c.setScheme(scheme);
    c.setPhysRegs(static_cast<std::uint16_t>(physRegs));
    if (nrr > 0)
        c.setNrr(static_cast<std::uint16_t>(nrr));
    c.skipInsts = 0;
    c.measureInsts = 15000;
    c.core.invariantChecks = true;
    c.core.fetch.wrongPath = WrongPathMode::Synthesize;

    auto r = runOne(bench, c);
    EXPECT_GT(r.ipc(), 0.0);
    EXPECT_GE(r.committed(), 15000u);
}

INSTANTIATE_TEST_SUITE_P(
    TightRegisterFiles, DeadlockFreedom,
    ::testing::Combine(
        ::testing::Values(RenameScheme::VPAllocAtWriteback,
                          RenameScheme::VPAllocAtIssue),
        ::testing::Values(34, 40, 48),
        ::testing::Values(1, 2, -1),  // -1 = maximum (NPR - NLR)
        ::testing::Values(std::string("swim"), std::string("apsi"),
                          std::string("compress"))),
    [](const auto &info) {
        std::string s = renameSchemeName(std::get<0>(info.param));
        for (auto &ch : s)
            if (ch == '-')
                ch = '_';
        int nrr = std::get<2>(info.param);
        return s + "_r" + std::to_string(std::get<1>(info.param)) +
               "_n" +
               (nrr < 0 ? std::string("max") : std::to_string(nrr)) +
               "_" + std::get<3>(info.param);
    });

INSTANTIATE_TEST_SUITE_P(
    ConventionalBaseline, DeadlockFreedom,
    ::testing::Combine(::testing::Values(RenameScheme::Conventional),
                       ::testing::Values(34, 64),
                       ::testing::Values(-1),
                       ::testing::Values(std::string("swim"),
                                         std::string("go"))),
    [](const auto &info) {
        return "conv_r" + std::to_string(std::get<1>(info.param)) + "_" +
               std::get<3>(info.param);
    });

TEST(DeadlockEdge, MinimumMachineOneSpareRegister)
{
    // NPR = NLR + 1 with NRR = 1: the tightest legal VP configuration.
    // Execution degenerates to near-serial but must not deadlock.
    SimConfig c = paperConfig();
    c.setScheme(RenameScheme::VPAllocAtWriteback);
    c.setPhysRegs(33, 1);
    c.skipInsts = 0;
    c.measureInsts = 1500;
    auto r = runOne("compress", c);
    EXPECT_GE(r.committed(), 1500u);
}

TEST(DeadlockEdge, MixedClassesDoNotInterlock)
{
    // FP registers exhausted must not block integer progress (a paper
    // advantage: "the processor is allowed to continue executing
    // instructions of the other type").
    SimConfig c = paperConfig();
    c.setScheme(RenameScheme::VPAllocAtWriteback);
    c.setPhysRegs(34, 2);
    c.skipInsts = 0;
    c.measureInsts = 8000;
    auto r = runOne("apsi", c);  // mixes FP and integer work
    EXPECT_GE(r.committed(), 8000u);
}

} // namespace
} // namespace vpr
