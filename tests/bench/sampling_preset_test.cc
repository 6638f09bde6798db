/**
 * @file
 * Every registered figure carries its --sampling-preset protocol, so
 * the presets and the figure registry cannot drift apart. The tuned
 * values must be well-formed sampling protocols for the figure's own
 * cells (a figure left with a zero preset fails here, not at a user's
 * command line), and the flag expands to exactly the preset's
 * sim.sampling.* assignments.
 */

#include <gtest/gtest.h>

#include <string>

#include "figures.hh"
#include "sim/params.hh"

#include "../support/expect_error.hh"

namespace vpr::bench
{
namespace
{

TEST(SamplingPresets, ValuesFormValidProtocols)
{
    // Check each preset against its figure's real cells at scale 1,
    // applied the way --sampling-preset applies it: every cell must
    // validate (the period fits its warm-up, its detailed interval and
    // the cell's measurement budget), and get at least three intervals
    // for a meaningful variance estimate.
    for (const FigureDef &figure : allFigures()) {
        const std::vector<std::string> preset =
            samplingPresetAssignments(figure.name);
        for (GridCell cell : figure.build()) {
            applyAssignments(cell.config, preset);
            ASSERT_NO_THROW(cell.config.validate()) << figure.name;
            EXPECT_GE(cell.config.measureInsts /
                          cell.config.sampling.periodInsts,
                      3u)
                << figure.name << " cell " << cell.benchmark;
        }
    }
}

TEST(SamplingPresets, PresetFlagExpandsToTheFourSamplingKeys)
{
    EXPECT_EQ(samplingPresetAssignments("fig7_regfile_size"),
              (std::vector<std::string>{
                  "sim.sampling.enable=1",
                  "sim.sampling.period_insts=20000",
                  "sim.sampling.warmup_insts=150",
                  "sim.sampling.detailed_insts=250"}));
    EXPECT_EQ(samplingPresetAssignments("table2_ipc"),
              (std::vector<std::string>{
                  "sim.sampling.enable=1",
                  "sim.sampling.period_insts=10000",
                  "sim.sampling.warmup_insts=150",
                  "sim.sampling.detailed_insts=500"}));
    EXPECT_VPR_ERROR(samplingPresetAssignments("nope"),
                     "unknown sampling preset 'nope'");
}

TEST(SamplingPresets, LookupByName)
{
    const SamplingPreset *fig7 = findSamplingPreset("fig7_regfile_size");
    ASSERT_NE(fig7, nullptr);
    EXPECT_EQ(fig7->periodInsts, 20000u);
    EXPECT_EQ(findSamplingPreset("no_such_figure"), nullptr);
}

} // namespace
} // namespace vpr::bench
