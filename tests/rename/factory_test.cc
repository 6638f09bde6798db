/** @file Tests for the rename-scheme factory and its one name table. */

#include <gtest/gtest.h>

#include "rename/factory.hh"
#include "sim/config.hh"
#include "sim/params.hh"

namespace vpr
{
namespace
{

RenameConfig
cfg()
{
    RenameConfig rc;
    rc.numPhysRegs = 64;
    rc.numVPRegs = 160;
    rc.nrrInt = 8;
    rc.nrrFp = 8;
    return rc;
}

const RenameScheme kAllSchemes[] = {
    RenameScheme::Conventional,
    RenameScheme::VPAllocAtWriteback,
    RenameScheme::VPAllocAtIssue,
    RenameScheme::ConventionalEarlyRelease,
};

TEST(RenameFactory, EveryEnumeratorConstructs)
{
    for (RenameScheme s : kAllSchemes) {
        auto rn = makeRenamer(s, cfg());
        ASSERT_NE(rn, nullptr) << renameSchemeName(s);
        EXPECT_EQ(rn->scheme(), s);
        EXPECT_STRNE(renameSchemeName(s), "");
    }
}

TEST(RenameFactory, SchemeNamesAreStable)
{
    EXPECT_STREQ(renameSchemeName(RenameScheme::Conventional),
                 "conventional");
    EXPECT_STREQ(renameSchemeName(RenameScheme::VPAllocAtWriteback),
                 "vp-writeback");
    EXPECT_STREQ(renameSchemeName(RenameScheme::VPAllocAtIssue),
                 "vp-issue");
    EXPECT_STREQ(renameSchemeName(RenameScheme::ConventionalEarlyRelease),
                 "conv-early-release");
}

TEST(RenameFactory, ConfigSchemeNamesComeFromRenameSchemeName)
{
    // core.scheme takes each canonical name and reads it back verbatim:
    // the config registry and the reports share one name table.
    for (RenameScheme s : kAllSchemes) {
        SimConfig config;
        config.core.scheme = s == RenameScheme::Conventional
                                 ? RenameScheme::VPAllocAtIssue
                                 : RenameScheme::Conventional;
        ConfigRegistry registry(config);
        registry.set("core.scheme", renameSchemeName(s));
        EXPECT_EQ(config.core.scheme, s) << renameSchemeName(s);
        EXPECT_EQ(registry.get("core.scheme"), renameSchemeName(s));
    }
}

} // namespace
} // namespace vpr
