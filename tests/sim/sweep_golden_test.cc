/**
 * @file
 * Byte-identity pin for the sampled-sweep CSV exporter.
 *
 * tests/data/sampled_sweep_golden.csv was recorded before stat names
 * were interned or memoised: a small sampled sweep over all four
 * rename schemes at two register-file sizes, exported through
 * writeResultsCsv. Re-running the identical
 * sweep must reproduce that file byte for byte — any change to metric
 * names, schema order, value formatting, provenance columns, or the
 * simulated outcomes themselves trips this test. This is the repo's
 * proof that interning and name memoisation are pure plumbing changes.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "sim/config.hh"
#include "sim/experiment.hh"
#include "sim/results_io.hh"
#include "sim/sweep.hh"

#ifndef VPR_TEST_DATA_DIR
#error "VPR_TEST_DATA_DIR must point at tests/data"
#endif

namespace vpr
{
namespace
{

std::string
runSampledSweepCsv(unsigned jobs)
{
    SimConfig config = paperConfig();
    config.core.fetch.wrongPath = WrongPathMode::Stall;
    config.skipInsts = 2000;
    config.measureInsts = 8000;
    config.sampling.enable = true;
    config.sampling.periodInsts = 2000;

    const std::vector<SweepAxis> axes = {
        {"core.scheme", {"conv", "conv-er", "vp-wb", "vp-issue"}},
        {"core.rename.regfile_size", {"48", "64"}},
    };
    const std::vector<GridCell> cells =
        buildSweepGrid({"compress"}, config, axes);
    const std::vector<SimResults> results = runGrid(cells, jobs);

    std::vector<std::size_t> indices(cells.size());
    for (std::size_t i = 0; i < indices.size(); ++i)
        indices[i] = i;
    std::ostringstream os;
    writeResultsCsv(os, "sampled-sweep-golden", ShardSpec{}, indices,
                    cells, results);
    return os.str();
}

std::string
goldenFileContents()
{
    const std::string path =
        std::string(VPR_TEST_DATA_DIR) + "/sampled_sweep_golden.csv";
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << "cannot open " << path;
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

TEST(SampledSweepGolden, CsvIsByteIdenticalToPreInterningRecord)
{
    const std::string golden = goldenFileContents();
    ASSERT_FALSE(golden.empty());
    EXPECT_EQ(runSampledSweepCsv(2), golden);
}

TEST(SampledSweepGolden, JobsCountDoesNotChangeTheBytes)
{
    // Serial and parallel runs must export the same bytes: cell order
    // is positional, never completion-ordered. The parallel run goes
    // first so that, in a fresh process, four workers fill the
    // process-global intern table and stat-name memo concurrently
    // (the TSan CI job runs this test).
    const std::string parallel = runSampledSweepCsv(4);
    EXPECT_EQ(runSampledSweepCsv(1), parallel);
}

} // namespace
} // namespace vpr
