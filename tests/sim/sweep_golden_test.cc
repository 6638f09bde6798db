/**
 * @file
 * Byte-identity pins for whole exported sweeps, and the oracle for the
 * scheduler.
 *
 * Each file in tests/data is one sweep exported through
 * writeResultsCsv. Re-running the identical sweep must reproduce it
 * byte for byte — any change to metric names, schema order, value
 * formatting, provenance columns, or the simulated outcomes themselves
 * trips these tests.
 *
 * - sampled_sweep_golden.csv: a small sampled sweep of compress over
 *   all four rename schemes at two register-file sizes. It pins stat
 *   interning and name memoisation as pure plumbing changes.
 * - scheduler_golden.csv: every kernel, detailed, under conv, vp-wb
 *   and vp-issue with wrong-path synthesis and wrong-path memory
 *   traffic, so squash recovery, write-back re-execution and LSQ holds
 *   all run (the coverage test checks that they do).
 * - scheduler_golden_er.csv: every kernel under conv-er, which needs
 *   core.fetch.wrong_path=stall.
 * - scheduler_golden_gate.csv: compress and swim under vp-issue at
 *   NRR 1, 4, 8 and 16 with 48 and 64 registers. The NRR 32 cells of
 *   scheduler_golden.csv never open the issue gate to an instruction
 *   outside the reserved set; these cells do (paper §3.3's
 *   free > NRR - Used branch), so the issue stage's parked gate
 *   refusals must re-admit exactly when the gate opens. It was
 *   recorded by the build before the gate list existed.
 *
 * The two scheduler goldens are the oracle for the event-driven
 * scheduler (wait-list wakeup, ready-list issue, store-table
 * disambiguation, calendar completion queue). They replaced the
 * legacy scan and heap twins of those mechanisms and were recorded
 * when the twins were deleted. Before the deletion, the twins' scan
 * paths and the event paths exported identical records on these
 * cells. This file was then compiled against the last tree that still
 * had the twins and run with VPR_GOLDEN_OUT set. Its three exports,
 * with the four deleted cfg.core.{iq.scan_wakeup,iq.scan_issue,
 * lsq.scan_disambig,cq.calendar} columns cut, equal the checked-in
 * files except for the header's cfg= digest. The sampled golden was
 * regenerated and checked the same way.
 *
 * To regenerate a golden after a change that is meant to alter the
 * records (a new parameter, say), run
 *   VPR_GOLDEN_OUT=<dir> ./vpr_tests --gtest_filter='*Golden*'
 * which also writes each actual export to <dir>/<file>, and check it
 * against the parent commit's export the same way before copying it
 * into tests/data.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>

#include "sim/config.hh"
#include "sim/experiment.hh"
#include "sim/results_io.hh"
#include "sim/sweep.hh"
#include "trace/kernels/kernels.hh"

#ifndef VPR_TEST_DATA_DIR
#error "VPR_TEST_DATA_DIR must point at tests/data"
#endif

namespace vpr
{
namespace
{

/** Run @p benchmarks x @p axes over @p base through the engine with
 *  @p jobs workers and export the grid as the batch binaries do. */
std::string
runSweepCsv(const std::string &figure,
            const std::vector<std::string> &benchmarks,
            const SimConfig &base, const std::vector<SweepAxis> &axes,
            unsigned jobs)
{
    const std::vector<GridCell> cells =
        buildSweepGrid(benchmarks, base, axes);
    const std::vector<SimResults> results = runGrid(cells, jobs);

    std::vector<std::size_t> indices(cells.size());
    std::iota(indices.begin(), indices.end(), std::size_t{0});
    std::ostringstream os;
    writeResultsCsv(os, figure, ShardSpec{}, indices, cells, results);
    return os.str();
}

std::string
runSampledSweepCsv(unsigned jobs)
{
    SimConfig config = paperConfig();
    config.core.fetch.wrongPath = WrongPathMode::Stall;
    config.skipInsts = 2000;
    config.measureInsts = 8000;
    config.sampling.enable = true;
    config.sampling.periodInsts = 2000;
    return runSweepCsv(
        "sampled-sweep-golden", {"compress"}, config,
        {{"core.scheme", {"conv", "conv-er", "vp-wb", "vp-issue"}},
         {"core.rename.regfile_size", {"48", "64"}}},
        jobs);
}

/** Every kernel, detailed: skip 2000, measure 20000. */
SimConfig
schedulerConfig(WrongPathMode wrongPath)
{
    SimConfig config = paperConfig();
    config.skipInsts = 2000;
    config.measureInsts = 20000;
    config.core.fetch.wrongPath = wrongPath;
    config.core.fetch.wrongPathMem = wrongPath == WrongPathMode::Synthesize;
    return config;
}

std::string
runSchedulerCsv()
{
    return runSweepCsv("scheduler-golden", benchmarkNames(),
                       schedulerConfig(WrongPathMode::Synthesize),
                       {{"core.scheme", {"conv", "vp-wb", "vp-issue"}}},
                       2);
}

std::string
runSchedulerErCsv()
{
    return runSweepCsv("scheduler-golden-er", benchmarkNames(),
                       schedulerConfig(WrongPathMode::Stall),
                       {{"core.scheme", {"conv-er"}}}, 2);
}

std::string
runSchedulerGateCsv()
{
    return runSweepCsv("scheduler-golden-gate", {"compress", "swim"},
                       schedulerConfig(WrongPathMode::Synthesize),
                       {{"core.scheme", {"vp-issue"}},
                        // regfile_size resets NRR to its maximum, so
                        // it is applied first.
                        {"core.rename.regfile_size", {"48", "64"}},
                        {"core.rename.nrr", {"1", "4", "8", "16"}}},
                       2);
}

std::string
goldenPath(const std::string &file)
{
    return std::string(VPR_TEST_DATA_DIR) + "/" + file;
}

/** Compare @p actual with tests/data/@p file; with VPR_GOLDEN_OUT set,
 *  also write @p actual to that directory for regeneration. */
void
expectMatchesGolden(const std::string &actual, const std::string &file)
{
    if (const char *dir = std::getenv("VPR_GOLDEN_OUT")) {
        std::ofstream os(std::string(dir) + "/" + file, std::ios::binary);
        os << actual;
        EXPECT_TRUE(os.good()) << "cannot write " << dir << "/" << file;
    }
    std::ifstream is(goldenPath(file), std::ios::binary);
    ASSERT_TRUE(is.good()) << "cannot open " << goldenPath(file);
    std::ostringstream golden;
    golden << is.rdbuf();
    ASSERT_FALSE(golden.str().empty());
    EXPECT_EQ(actual, golden.str()) << file;
}

TEST(SampledSweepGolden, CsvIsByteIdenticalToPreInterningRecord)
{
    expectMatchesGolden(runSampledSweepCsv(2), "sampled_sweep_golden.csv");
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

TEST(SchedulerGolden, CsvIsByteIdenticalToRecord)
{
    expectMatchesGolden(runSchedulerCsv(), "scheduler_golden.csv");
}

TEST(SchedulerGolden, EarlyReleaseCsvIsByteIdenticalToRecord)
{
    expectMatchesGolden(runSchedulerErCsv(), "scheduler_golden_er.csv");
}

TEST(SchedulerGolden, IssueGateCsvIsByteIdenticalToRecord)
{
    expectMatchesGolden(runSchedulerGateCsv(), "scheduler_golden_gate.csv");
}

TEST(SchedulerGolden, RecordsExerciseRecoveryReexecutionAndHolds)
{
    // The goldens are only an oracle for the paths their records run:
    // branch squash recovery, write-back re-execution (vp-wb) and loads
    // held on unknown store addresses must all occur.
    const ResultsFile file =
        readResultsCsvFile(goldenPath("scheduler_golden.csv"));
    const auto column = [&file](const std::string &name) {
        for (std::size_t i = 0; i < file.header.size(); ++i)
            if (file.header[i] == name)
                return i;
        ADD_FAILURE() << "no column " << name;
        return std::size_t{0};
    };
    const std::size_t scheme = column("cfg.core.scheme");
    const std::size_t squashed = column("core.squashed");
    const std::size_t execPerCommit = column("core.exec_per_commit");
    const std::size_t holds = column("lsq.unknown_addr_holds");

    unsigned squashing = 0, reexecuting = 0, holding = 0;
    for (const ResultsFile::Row &row : file.rows) {
        squashing += std::stoull(row.values[squashed]) > 0;
        reexecuting += row.values[scheme] == "vp-writeback" &&
                       std::stod(row.values[execPerCommit]) > 1.0;
        holding += std::stoull(row.values[holds]) > 0;
    }
    EXPECT_EQ(file.rows.size(), 27u);
    EXPECT_GT(squashing, 0u);
    EXPECT_GT(reexecuting, 0u);
    EXPECT_GT(holding, 0u);
}

} // namespace
} // namespace vpr
