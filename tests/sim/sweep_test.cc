/**
 * @file
 * Sweep-driver tests: axis parsing, cross-product grid order, the
 * acceptance property that a --sweep over (regfile size × scheme)
 * reproduces the fig7_regfile_size grid cell for cell and record for
 * record, provenance verification, and --jobs invariance of exported
 * records.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <sstream>

#include "figures.hh"
#include "sim/params.hh"
#include "sim/results_io.hh"
#include "sim/sweep.hh"

#include "../support/expect_error.hh"

namespace vpr
{
namespace
{

TEST(SweepAxis, ParseAcceptsKeyAndValueList)
{
    SweepAxis axis =
        parseSweepAxis("core.rename.regfile_size=48,64,96");
    EXPECT_EQ(axis.key, "core.rename.regfile_size");
    EXPECT_EQ(axis.values,
              (std::vector<std::string>{"48", "64", "96"}));
    SweepAxis one = parseSweepAxis("seed=5");
    EXPECT_EQ(one.values, (std::vector<std::string>{"5"}));
}

TEST(SweepAxisDeath, ParseRejectsGarbage)
{
    EXPECT_VPR_ERROR(parseSweepAxis("core.scheme"), "bad sweep spec");
    EXPECT_VPR_ERROR(parseSweepAxis("=1,2"), "bad sweep spec");
    EXPECT_VPR_ERROR(parseSweepAxis("seed=1,,2"), "empty value");
}

TEST(SweepGrid, CrossProductOrderIsBenchOuterRightmostFastest)
{
    SimConfig base;
    std::vector<SweepAxis> axes = {
        parseSweepAxis("core.cache.miss_penalty=10,20"),
        parseSweepAxis("core.scheme=conv,vp-wb")};
    std::vector<GridCell> cells =
        buildSweepGrid({"a", "b"}, base, axes);
    ASSERT_EQ(cells.size(), 8u);

    auto check = [&cells](std::size_t i, const std::string &bench,
                          unsigned miss, RenameScheme scheme) {
        EXPECT_EQ(cells[i].benchmark, bench) << "cell " << i;
        EXPECT_EQ(cells[i].config.core.cache.missPenalty, miss)
            << "cell " << i;
        EXPECT_EQ(cells[i].config.core.scheme, scheme) << "cell " << i;
    };
    check(0, "a", 10, RenameScheme::Conventional);
    check(1, "a", 10, RenameScheme::VPAllocAtWriteback);
    check(2, "a", 20, RenameScheme::Conventional);
    check(3, "a", 20, RenameScheme::VPAllocAtWriteback);
    check(4, "b", 10, RenameScheme::Conventional);
    check(7, "b", 20, RenameScheme::VPAllocAtWriteback);
}

TEST(SweepGrid, NoAxesMeansOneCellPerBenchmark)
{
    SimConfig base;
    std::vector<GridCell> cells = buildSweepGrid({"x", "y"}, base, {});
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_EQ(cells[0].benchmark, "x");
    EXPECT_EQ(cells[1].benchmark, "y");
}

TEST(SweepGridDeath, UnknownAxisKeyIsFatal)
{
    SimConfig base;
    std::vector<SweepAxis> axes = {parseSweepAxis("core.warp=1,2")};
    EXPECT_VPR_ERROR(buildSweepGrid({"a"}, base, axes), "unknown parameter");
}

TEST(SweepGridDeath, RepeatedCellsAreErrors)
{
    // Each of these would run one cell twice, or lose an axis to a
    // later one over the same key.
    SimConfig base;
    EXPECT_VPR_ERROR(
        buildSweepGrid({"compress", "swim", "compress"}, base, {}),
        "benchmark 'compress' named twice");
    EXPECT_VPR_ERROR(buildSweepGrid({"compress"}, base,
                                    {parseSweepAxis("seed=1,2"),
                                     parseSweepAxis("seed=3")}),
                     "sweep key 'seed' on two axes");
    EXPECT_VPR_ERROR(
        buildSweepGrid({"compress"}, base, {parseSweepAxis("seed=1,1")}),
        "sweep axis 'seed' repeats value '1'");
    // Values compare canonically: an alias repeats its scheme's name,
    // and so does a number spelled with a leading zero.
    EXPECT_VPR_ERROR(
        buildSweepGrid({"compress"}, base,
                       {parseSweepAxis("core.scheme=conv,conventional")}),
        "sweep axis 'core.scheme' repeats value 'conventional'");
    EXPECT_VPR_ERROR(
        buildSweepGrid({"compress"}, base,
                       {parseSweepAxis("core.rename.regfile_size=64,064")}),
        "repeats value '064'");

    // Distinct values, including every alias of a distinct scheme, pass.
    const std::vector<GridCell> cells = buildSweepGrid(
        {"compress"}, base,
        {parseSweepAxis("core.scheme=conv,vp-wb,vp-issue,conv-er")});
    EXPECT_EQ(cells.size(), 4u);
}

/**
 * The acceptance property: sweeping (regfile size × scheme) from the
 * bench base config enumerates exactly the fig7_regfile_size grid —
 * same cells, same order, same full provenance — so the exported
 * records are byte-identical too.
 */
TEST(SweepEquivalence, SweepReproducesTheFig7Grid)
{
    const bench::FigureDef *def = bench::findFigure("fig7_regfile_size");
    ASSERT_NE(def, nullptr);
    const std::vector<GridCell> figCells = def->build();

    const std::vector<SweepAxis> axes = {
        parseSweepAxis("core.rename.regfile_size=48,64,96"),
        parseSweepAxis("core.scheme=conv,vp-wb")};
    const std::vector<GridCell> sweepCells =
        buildSweepGrid(benchmarkNames(), bench::experimentConfig(), axes);

    ASSERT_EQ(sweepCells.size(), figCells.size());
    for (std::size_t i = 0; i < figCells.size(); ++i) {
        EXPECT_EQ(sweepCells[i].benchmark, figCells[i].benchmark)
            << "cell " << i;
        EXPECT_EQ(cellConfigValues(sweepCells[i]),
                  cellConfigValues(figCells[i]))
            << "cell " << i;
    }
    EXPECT_EQ(gridConfigDigest(sweepCells), gridConfigDigest(figCells));

    // Without running any simulation, the exported record files (empty
    // metric schema) must already be byte-identical: same metadata,
    // digest, header and provenance rows.
    std::vector<std::size_t> indices(figCells.size());
    std::iota(indices.begin(), indices.end(), 0);
    std::vector<SimResults> empty(figCells.size());
    std::ostringstream fig, sweep;
    writeResultsCsv(fig, def->name, ShardSpec{}, indices, figCells,
                    empty);
    writeResultsCsv(sweep, def->name, ShardSpec{}, indices, sweepCells,
                    empty);
    EXPECT_EQ(fig.str(), sweep.str());
}

/** A small sweep grid that actually runs: one benchmark, 2x2 axes,
 *  tiny budgets. */
std::vector<GridCell>
tinySweepCells()
{
    SimConfig base;
    base.skipInsts = 500;
    base.measureInsts = 2000;
    base.core.fetch.wrongPath = WrongPathMode::Stall;
    const std::vector<SweepAxis> axes = {
        parseSweepAxis("core.rename.regfile_size=48,64"),
        parseSweepAxis("core.scheme=conv,vp-wb")};
    return buildSweepGrid({"compress"}, base, axes);
}

TEST(SweepEquivalence, SweepRecordsMatchHandRolledGridEndToEnd)
{
    const std::vector<GridCell> sweepCells = tinySweepCells();

    // The same grid, hand-rolled the way the figure code does it.
    SimConfig config;
    config.skipInsts = 500;
    config.measureInsts = 2000;
    config.core.fetch.wrongPath = WrongPathMode::Stall;
    std::vector<GridCell> handCells;
    for (std::uint16_t size : {48, 64}) {
        config.setPhysRegs(size);
        config.setScheme(RenameScheme::Conventional);
        handCells.push_back({"compress", config});
        config.setScheme(RenameScheme::VPAllocAtWriteback);
        handCells.push_back({"compress", config});
    }
    ASSERT_EQ(sweepCells.size(), handCells.size());

    std::vector<SimResults> sweepResults = runGrid(sweepCells, 1);
    std::vector<SimResults> handResults = runGrid(handCells, 2);

    std::vector<std::size_t> indices(sweepCells.size());
    std::iota(indices.begin(), indices.end(), 0);
    std::ostringstream a, b;
    writeResultsCsv(a, "tiny", ShardSpec{}, indices, sweepCells,
                    sweepResults);
    writeResultsCsv(b, "tiny", ShardSpec{}, indices, handCells,
                    handResults);
    // Byte-identical records: same cells, same metrics, same
    // provenance — and independent of --jobs (1 vs 2 above).
    EXPECT_EQ(a.str(), b.str());
}

TEST(SweepProvenance, VerifyAcceptsMatchingAndNamesTheDifferingKey)
{
    const std::vector<GridCell> cells = tinySweepCells();
    std::vector<std::size_t> indices(cells.size());
    std::iota(indices.begin(), indices.end(), 0);
    std::vector<SimResults> empty(cells.size());
    std::ostringstream os;
    writeResultsCsv(os, "tiny", ShardSpec{}, indices, cells, empty);

    std::istringstream is(os.str());
    ResultsFile file = readResultsCsv(is, "tiny");
    verifyCellProvenance(file, cells, "tiny");  // must not die

    // Tamper one row's miss-penalty provenance: the check must name
    // the dotted key.
    ResultsFile bad = file;
    const std::vector<std::string> &fixed = resultFixedColumns();
    auto it = std::find(fixed.begin(), fixed.end(),
                        "cfg.core.cache.miss_penalty");
    ASSERT_NE(it, fixed.end());
    bad.rows[2].values[static_cast<std::size_t>(it - fixed.begin())] =
        "123";
    EXPECT_VPR_ERROR(verifyCellProvenance(bad, cells, "tampered"),
                     "cfg.core.cache.miss_penalty");
}

} // namespace
} // namespace vpr
