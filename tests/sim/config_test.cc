/** @file Unit tests for SimConfig and the paper machine defaults. */

#include <gtest/gtest.h>

#include <limits>

#include "sim/experiment.hh"
#include "sim/params.hh"

#include "../support/expect_error.hh"

namespace vpr
{
namespace
{

TEST(SimConfig, PaperMachineDefaults)
{
    SimConfig c = paperConfig();
    // Section 4.1 of the paper.
    EXPECT_EQ(c.core.fetch.fetchWidth, 8u);
    EXPECT_EQ(c.core.commitWidth, 8u);
    EXPECT_EQ(c.core.robSize, 128u);
    EXPECT_EQ(c.core.fetch.bhtEntries, 2048u);
    EXPECT_EQ(c.core.regReadPorts, 16u);
    EXPECT_EQ(c.core.regWritePorts, 8u);
    EXPECT_EQ(c.core.cachePorts, 3u);
    EXPECT_EQ(c.core.cache.sizeBytes, 16u * 1024u);
    EXPECT_EQ(c.core.cache.lineSize, 32u);
    EXPECT_EQ(c.core.cache.hitLatency, 2u);
    EXPECT_EQ(c.core.cache.missPenalty, 50u);
    EXPECT_EQ(c.core.cache.numMshrs, 8u);
    EXPECT_EQ(c.core.cache.busOccupancy, 4u);
    EXPECT_EQ(c.core.rename.numPhysRegs, 64);
    EXPECT_EQ(c.core.rename.nrrInt, 32);
    EXPECT_EQ(c.core.rename.numVPRegs, 32 + 128);
    c.validate();
}

TEST(SimConfig, SetPhysRegsDefaultsNrrToMax)
{
    SimConfig c = paperConfig();
    c.setPhysRegs(48);
    EXPECT_EQ(c.core.rename.numPhysRegs, 48);
    EXPECT_EQ(c.core.rename.nrrInt, 16);
    EXPECT_EQ(c.core.rename.nrrFp, 16);
    c.setPhysRegs(96, 8);
    EXPECT_EQ(c.core.rename.nrrInt, 8);
    c.validate();
}

TEST(SimConfig, SetPhysRegsResizesVpPoolToWindow)
{
    SimConfig c = paperConfig();
    c.core.robSize = 256;
    c.core.iqSize = 256;
    c.setPhysRegs(64);
    EXPECT_EQ(c.core.rename.numVPRegs, 32 + 256);
    c.validate();
}

TEST(SimConfig, SetSchemeAndNrr)
{
    SimConfig c = paperConfig();
    c.setScheme(RenameScheme::VPAllocAtIssue);
    EXPECT_EQ(c.core.scheme, RenameScheme::VPAllocAtIssue);
    c.setNrr(4);
    EXPECT_EQ(c.core.rename.nrrInt, 4);
    EXPECT_EQ(c.core.rename.nrrFp, 4);
}

TEST(SimConfigDeath, ValidateRejectsTooFewPhysRegs)
{
    SimConfig c = paperConfig();
    c.core.rename.numPhysRegs = 32;
    EXPECT_VPR_ERROR(c.validate(), "must exceed");
}

TEST(SimConfigDeath, ValidateRejectsSmallVpPool)
{
    SimConfig c = paperConfig();
    c.core.rename.numVPRegs = 100;  // < 32 + 128
    EXPECT_VPR_ERROR(c.validate(), "NLR \\+ window");
}

TEST(SimConfigDeath, ValidateRejectsOversizedNrr)
{
    SimConfig c = paperConfig();
    c.core.rename.nrrInt = 40;  // > 64 - 32
    EXPECT_VPR_ERROR(c.validate(), "NRR must be <=");
}

TEST(SimConfigDeath, ValidateRejectsSmallIq)
{
    SimConfig c = paperConfig();
    c.core.iqSize = 64;
    EXPECT_VPR_ERROR(c.validate(), "iqSize");
}

TEST(SimConfigDeath, ValidateRejectsEarlyReleaseWithWrongPathSynthesis)
{
    // Early release cannot squash a wrong-path superseder: the config
    // is refused up front instead of aborting inside the renamer.
    SimConfig c = paperConfig();
    c.setScheme(RenameScheme::ConventionalEarlyRelease);
    c.core.fetch.wrongPath = WrongPathMode::Synthesize;
    EXPECT_VPR_ERROR(
        c.validate(),
        "core.scheme=conv-early-release requires "
        "core.fetch.wrong_path=stall");
    c.core.fetch.wrongPath = WrongPathMode::Stall;
    EXPECT_NO_THROW(c.validate());
}

TEST(SimConfigDeath, ValidateBoundsInstructionBudgets)
{
    // Budgets are bounded so that skip plus measure, and each sampled
    // target, cannot wrap 64 bits.
    SimConfig c = paperConfig();
    c.measureInsts = std::numeric_limits<std::uint64_t>::max();
    EXPECT_VPR_ERROR(c.validate(), "measure_insts");
    c = paperConfig();
    c.skipInsts = std::numeric_limits<std::uint64_t>::max() - 100;
    EXPECT_VPR_ERROR(c.validate(), "skip_insts");
    c.skipInsts = 1'000'000'000'000'000;
    c.measureInsts = c.skipInsts;
    EXPECT_NO_THROW(c.validate());
}

TEST(SimConfig, LargestLegalCoreBuildsAndRuns)
{
    // Every per-key upper bound validate() enforces, all at once: the
    // limits must leave a core that builds and runs, not just one that
    // passes validation.
    SimConfig c = paperConfig();
    applyAssignments(
        c, {"core.scheme=conv", "core.window=4096",
            "core.fetch.buffer_capacity=4096",
            "core.rename_width=64", "core.issue_width=64",
            "core.commit_width=64", "core.reg_read_ports=64",
            "core.reg_write_ports=64", "core.cache_ports=64",
            "core.fetch.fetch_width=64", "core.fu.simple_int=64",
            "core.fu.complex_int=64", "core.fu.eff_addr=64",
            "core.fu.simple_fp=64", "core.fu.fp_mul=64",
            "core.fu.fp_div_sqrt=64", "core.fetch.bht_entries=1048576",
            "core.fetch.redirect_delay=1024",
            "core.cache.size_bytes=67108864", "core.cache.assoc=64",
            "core.cache.line_size=4096", "core.cache.num_mshrs=1024",
            "core.cache.hit_latency=1024",
            "core.cache.miss_penalty=32768",
            "core.cache.bus_occupancy=31", "skip_insts=0",
            "measure_insts=500"});
    EXPECT_NO_THROW(c.validate());
    const SimResults r = runOne("swim", c);
    EXPECT_GE(r.committed(), 500u);

    // One step past the memory-stall bound is refused, naming the keys.
    c.core.cache.busOccupancy = 32;
    EXPECT_VPR_ERROR(c.validate(), "core.cache.bus_occupancy");
}

} // namespace
} // namespace vpr
