/**
 * @file
 * Sharded-sweep tests: shard arithmetic, and the acceptance property —
 * merging the per-shard records of a real figure reproduces both the
 * unsharded CSV and the rendered table byte for byte.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <sstream>

#include "figures.hh"
#include "sim/results_io.hh"

#include "../support/expect_error.hh"

namespace vpr
{
namespace
{

TEST(ShardSpec, ParseAcceptsValidSpecs)
{
    ShardSpec s = parseShard("2/5");
    EXPECT_EQ(s.index, 2u);
    EXPECT_EQ(s.count, 5u);
    EXPECT_TRUE(s.active());
    EXPECT_FALSE(parseShard("0/1").active());
}

TEST(ShardSpecDeath, ParseRejectsGarbage)
{
    EXPECT_VPR_ERROR(parseShard("5/5"), "bad shard");
    EXPECT_VPR_ERROR(parseShard("3"), "bad shard");
    EXPECT_VPR_ERROR(parseShard("x/2"), "bad shard");
    EXPECT_VPR_ERROR(parseShard("1/0"), "bad shard");
    // Both numbers parse whole: no sign, space or trailing text.
    for (const char *bad : {"+0/2", " 1/2", "1/ 2", "1/2x", "0x1/2", "/2",
                            "1/", "-1/2", "99999999999999999999/2"})
        EXPECT_VPR_ERROR(parseShard(bad), "bad shard") << bad;
}

TEST(ShardSpec, IndicesPartitionTheGrid)
{
    const std::size_t total = 11;
    const unsigned count = 3;
    std::vector<bool> seen(total, false);
    for (unsigned i = 0; i < count; ++i) {
        for (std::size_t cell :
             shardCellIndices(total, ShardSpec{i, count})) {
            ASSERT_LT(cell, total);
            EXPECT_FALSE(seen[cell]) << "cell in two shards";
            seen[cell] = true;
            EXPECT_EQ(cell % count, i);  // round-robin deal
        }
    }
    for (std::size_t c = 0; c < total; ++c)
        EXPECT_TRUE(seen[c]) << "cell " << c << " unassigned";
}

TEST(ShardSpec, SingleShardIsTheWholeGrid)
{
    std::vector<std::size_t> all = shardCellIndices(4, ShardSpec{});
    EXPECT_EQ(all, (std::vector<std::size_t>{0, 1, 2, 3}));
}

/**
 * The acceptance property on a real (small) figure: run
 * motivating_example unsharded and as 2 shards; the merged shard
 * records must equal the unsharded export byte for byte, and the table
 * rendered from the merged records must equal the unsharded table byte
 * for byte.
 */
TEST(ShardEquivalence, MergedShardsReproduceUnshardedRunExactly)
{
    const bench::FigureDef *def = bench::findFigure("motivating_example");
    ASSERT_NE(def, nullptr);

    const std::vector<GridCell> cells = def->build();
    ASSERT_GE(cells.size(), 2u);

    // Unsharded reference run.
    std::vector<SimResults> direct = runGrid(cells, 2);
    std::ostringstream directTable;
    def->render(cells, direct, directTable);
    std::vector<std::size_t> allIndices(cells.size());
    std::iota(allIndices.begin(), allIndices.end(), 0);
    std::ostringstream directCsv;
    writeResultsCsv(directCsv, def->name, ShardSpec{}, allIndices,
                    cells, direct);

    // Two independent shard runs, exported and parsed back.
    std::vector<ResultsFile> shards;
    for (unsigned i = 0; i < 2; ++i) {
        ShardSpec spec{i, 2};
        std::vector<std::size_t> indices =
            shardCellIndices(cells.size(), spec);
        std::vector<GridCell> selected = selectCells(cells, indices);
        std::vector<SimResults> results = runGrid(selected, 1);

        std::ostringstream os;
        writeResultsCsv(os, def->name, spec, indices, cells, results);
        std::istringstream is(os.str());
        shards.push_back(readResultsCsv(is, "shard"));
        // Each shard's embedded provenance matches the figure's grid.
        verifyCellProvenance(shards.back(), cells, "shard");
    }

    ResultsFile merged = mergeResults(shards);
    verifyCellProvenance(merged, cells, "merged");
    std::ostringstream mergedCsv;
    writeMergedCsv(mergedCsv, merged);
    EXPECT_EQ(mergedCsv.str(), directCsv.str());

    std::vector<SimResults> rebuilt = resultsFromFile(merged);
    std::ostringstream rebuiltTable;
    def->render(cells, rebuilt, rebuiltTable);
    EXPECT_EQ(rebuiltTable.str(), directTable.str());
    EXPECT_NE(directTable.str().find("writeback"), std::string::npos);
}

TEST(FigureRegistry, EveryPaperFigureIsAVprSimTarget)
{
    // vpr_sim resolves a target through findFigure; the name also
    // labels the figure's records, so it must pass the label rule.
    for (const char *name :
         {"table2_ipc", "fig4_nrr_writeback", "fig5_nrr_issue",
          "fig6_wb_vs_issue", "fig7_regfile_size",
          "ablation_early_release", "ablation_mshr", "ablation_window",
          "ablation_wrongpath", "motivating_example", "regpressure"}) {
        const bench::FigureDef *def = bench::findFigure(name);
        ASSERT_NE(def, nullptr) << name;
        EXPECT_EQ(def->name, name);
        EXPECT_FALSE(def->build().empty()) << name;
        EXPECT_NO_THROW(checkResultsLabel(def->name)) << name;
    }
    EXPECT_EQ(bench::findFigure("nope"), nullptr);
}

TEST(FigureRegistry, GridsAreBuiltOverTheGivenBase)
{
    // vpr_sim and merge_results hand each figure its base config (the
    // figures' base with the command line's config flags applied): a
    // key the figure does not sweep keeps the base's value in every
    // cell.
    SimConfig base = bench::experimentConfig();
    base.seed = 5;
    for (const bench::FigureDef &def : bench::allFigures())
        for (const GridCell &cell : def.build(base))
            EXPECT_EQ(cell.config.seed, 5u) << def.name;
}

TEST(FigureRegistry, NoFigureNameShadowsABenchmarkOrAll)
{
    // vpr_sim takes a benchmark, "all" or a figure as its target: a
    // figure named like either would silently change what runs.
    for (const bench::FigureDef &def : bench::allFigures()) {
        EXPECT_NE(def.name, "all");
        for (const std::string &benchmark : benchmarkNames())
            EXPECT_NE(def.name, benchmark);
    }
}

} // namespace
} // namespace vpr
