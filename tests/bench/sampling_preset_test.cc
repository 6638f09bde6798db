/**
 * @file
 * The --sampling-preset table must stay a bijection with the figure
 * registry: every registered figure has exactly one tuned preset (a new
 * figure without one fails here, not at a user's command line), every
 * preset names a real figure, the tuned values are well-formed
 * sampling protocols for the figure's own cells, and the flag expands
 * to exactly the preset's sim.sampling.* assignments.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "bench_common.hh"
#include "figures.hh"

#include "../support/expect_error.hh"

namespace vpr::bench
{
namespace
{

TEST(SamplingPresets, CoverEveryRegisteredFigureExactlyOnce)
{
    std::set<std::string> presetNames;
    for (const SamplingPreset &preset : samplingPresets())
        EXPECT_TRUE(presetNames.insert(preset.figure).second)
            << "duplicate preset for '" << preset.figure << "'";

    for (const FigureDef &figure : allFigures())
        EXPECT_EQ(presetNames.count(figure.name), 1u)
            << "registered figure '" << figure.name
            << "' has no --sampling-preset entry";

    for (const SamplingPreset &preset : samplingPresets())
        EXPECT_NE(findFigure(preset.figure), nullptr)
            << "preset '" << preset.figure
            << "' names an unregistered figure";

    EXPECT_EQ(presetNames.size(), allFigures().size());
}

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
            EXPECT_NO_THROW(cell.config.validate()) << figure.name;
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
