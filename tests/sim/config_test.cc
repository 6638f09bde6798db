/** @file Unit tests for SimConfig and the paper machine defaults. */

#include <gtest/gtest.h>

#include "sim/config.hh"

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
    EXPECT_EXIT(c.validate(), ::testing::ExitedWithCode(1),
                "must exceed");
}

TEST(SimConfigDeath, ValidateRejectsSmallVpPool)
{
    SimConfig c = paperConfig();
    c.core.rename.numVPRegs = 100;  // < 32 + 128
    EXPECT_EXIT(c.validate(), ::testing::ExitedWithCode(1),
                "NLR \\+ window");
}

TEST(SimConfigDeath, ValidateRejectsOversizedNrr)
{
    SimConfig c = paperConfig();
    c.core.rename.nrrInt = 40;  // > 64 - 32
    EXPECT_EXIT(c.validate(), ::testing::ExitedWithCode(1),
                "NRR must be <=");
}

TEST(SimConfigDeath, ValidateRejectsSmallIq)
{
    SimConfig c = paperConfig();
    c.core.iqSize = 64;
    EXPECT_EXIT(c.validate(), ::testing::ExitedWithCode(1),
                "iqSize");
}

TEST(SimConfigDeath, ValidateRejectsEarlyReleaseWithWrongPathSynthesis)
{
    // Early release cannot squash a wrong-path superseder: the config
    // is refused up front instead of aborting inside the renamer.
    SimConfig c = paperConfig();
    c.setScheme(RenameScheme::ConventionalEarlyRelease);
    c.core.fetch.wrongPath = WrongPathMode::Synthesize;
    EXPECT_EXIT(c.validate(), ::testing::ExitedWithCode(1),
                "core.scheme=conv-early-release requires "
                "core.fetch.wrong_path=stall");
    c.core.fetch.wrongPath = WrongPathMode::Stall;
    EXPECT_EQ(c.validationError(), "");
}

} // namespace
} // namespace vpr
