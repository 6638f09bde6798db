/** @file Unit tests for the experiment harness helpers. */

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <sstream>

#include "sim/experiment.hh"
#include "trace/kernels/kernels.hh"

#include "../support/expect_error.hh"

namespace vpr
{
namespace
{

TEST(Experiment, HarmonicMean)
{
    EXPECT_DOUBLE_EQ(harmonicMean({2.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(harmonicMean({1.0, 2.0}), 4.0 / 3.0);
    EXPECT_DOUBLE_EQ(harmonicMean({}), 0.0);
    // Harmonic mean is dominated by the smallest element — the reason
    // the paper uses it for IPC.
    EXPECT_LT(harmonicMean({0.5, 4.0}), 1.0);
}

TEST(Experiment, RunOneProducesPlausibleResults)
{
    SimConfig c = paperConfig();
    c.skipInsts = 1000;
    c.measureInsts = 10000;
    auto r = runOne("compress", c);
    EXPECT_GT(r.ipc(), 0.1);
    EXPECT_LT(r.ipc(), 8.0);
    EXPECT_GE(r.committed(), 10000u);
    EXPECT_GT(r.bhtAccuracy(), 0.5);
}

TEST(Experiment, RunAllCoversEveryBenchmark)
{
    SimConfig c = paperConfig();
    c.skipInsts = 200;
    c.measureInsts = 3000;
    std::vector<GridCell> cells;
    for (const auto &name : benchmarkNames())
        cells.push_back({name, c});
    const std::vector<SimResults> all = runGrid(cells, 1);
    ASSERT_EQ(all.size(), benchmarkNames().size());
    for (std::size_t i = 0; i < all.size(); ++i)
        EXPECT_GT(all[i].ipc(), 0.0) << cells[i].benchmark;
}

TEST(ExperimentDeath, ProcessInputsAreStrict)
{
    // A worker count, instruction scale or cache directory that does
    // not parse is an Error naming its flag or variable, never a
    // warning and a fallback that runs at the wrong width or scale.
    EXPECT_EQ(parseJobs("0", "--jobs"), 0u);
    EXPECT_EQ(parseJobs("4", "--jobs"), 4u);
    EXPECT_EQ(parseJobs("4096", "VPR_JOBS"), 4096u);
    for (const char *bad : {"abc", "", "-1", "4x", " 4", "4097",
                            "99999999999999999999"})
        EXPECT_VPR_ERROR(parseJobs(bad, "--jobs"), "bad --jobs") << bad;
    EXPECT_VPR_ERROR(parseJobs("abc", "VPR_JOBS"), "bad VPR_JOBS 'abc'");

    EXPECT_DOUBLE_EQ(parseInstsScale("0.05"), 0.05);
    EXPECT_DOUBLE_EQ(parseInstsScale("2"), 2.0);
    EXPECT_DOUBLE_EQ(parseInstsScale("1e1"), 10.0);
    for (const char *bad : {"abc", "", "0", "-1", "0.5x", "inf", "nan"})
        EXPECT_VPR_ERROR(parseInstsScale(bad), "bad VPR_INSTS_SCALE")
            << bad;

    // An empty cache directory (an unset shell variable) would run
    // uncached without a word.
    EXPECT_EQ(parseCacheDir("rc"), "rc");
    EXPECT_VPR_ERROR(parseCacheDir(""), "empty --result-cache");
}

TEST(Experiment, TableFormatting)
{
    std::ostringstream os;
    printTableHeader(os, "My Table", {"a", "b"});
    printTableRow(os, "row1", {1.5, 2.25}, 2);
    std::string out = os.str();
    EXPECT_NE(out.find("My Table"), std::string::npos);
    EXPECT_NE(out.find("row1"), std::string::npos);
    EXPECT_NE(out.find("1.50"), std::string::npos);
    EXPECT_NE(out.find("2.25"), std::string::npos);
}

TEST(Experiment, InstructionScaleAppliesToBudgets)
{
    SimConfig c = paperConfig();
    c.skipInsts = 10000;
    c.measureInsts = 50000;
    applyInstructionScale(c);  // default scale 1.0
    EXPECT_EQ(c.skipInsts, 10000u);
    EXPECT_EQ(c.measureInsts, 50000u);
}

TEST(ExperimentDeath, BudgetsThatDoNotFit64BitsAreRefused)
{
    // A scaled budget past the u64 range cannot be converted (that is
    // undefined behaviour); one that fits but could wrap the run's
    // commit target is refused by validate().
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    SimConfig c = paperConfig();
    c.measureInsts = kMax;
    EXPECT_VPR_ERROR(applyInstructionScale(c),
                     "measure_insts .* VPR_INSTS_SCALE");
    c = paperConfig();
    c.skipInsts = kMax;
    EXPECT_VPR_ERROR(applyInstructionScale(c),
                     "skip_insts .* VPR_INSTS_SCALE");
    c = paperConfig();
    c.measureInsts = std::uint64_t{1} << 63;
    EXPECT_VPR_ERROR(runOne("compress", c), "measure_insts");
}

TEST(Experiment, MeasureFloorEnforced)
{
    SimConfig c = paperConfig();
    c.measureInsts = 10;  // absurdly small
    applyInstructionScale(c);
    EXPECT_GE(c.measureInsts, 1000u);
}

} // namespace
} // namespace vpr
