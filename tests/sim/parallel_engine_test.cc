/** @file Unit tests for the ParallelExperimentEngine. */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/experiment.hh"
#include "trace/kernels/kernels.hh"

namespace vpr
{
namespace
{

SimConfig
tiny()
{
    SimConfig c = paperConfig();
    c.skipInsts = 500;
    c.measureInsts = 5000;
    c.core.fetch.wrongPath = WrongPathMode::Stall;
    return c;
}

/** A record as text, one line per metric: name, description, kind
 *  and exact value (reals at round-trip precision). */
std::string
recordText(const SimResults &r)
{
    std::ostringstream os;
    for (const Metric &m : r.metrics.all())
        os << m.name() << '\t' << m.desc() << '\t'
           << static_cast<int>(m.kind) << '\t' << m.text() << '\n';
    return os.str();
}

TEST(ParallelEngine, EmptyGridIsFine)
{
    ParallelExperimentEngine engine(4);
    EXPECT_TRUE(engine.run({}).empty());
}

TEST(ParallelEngine, WorkerCountIsBoundedByCells)
{
    ParallelExperimentEngine engine(8);
    EXPECT_EQ(engine.jobs(), 8u);
    EXPECT_EQ(engine.workersFor(3), 3u);
    EXPECT_EQ(engine.workersFor(100), 8u);
    EXPECT_EQ(engine.workersFor(0), 0u);
}

TEST(ParallelEngine, ZeroMeansHardwareConcurrency)
{
    ParallelExperimentEngine engine(0);
    EXPECT_GE(engine.jobs(), 1u);
}

TEST(ParallelEngine, ResultsKeepCellOrderAcrossJobCounts)
{
    // A grid of unequal-runtime cells: results must land in cell order
    // and be identical for every worker count.
    std::vector<GridCell> cells;
    SimConfig c = tiny();
    for (const char *name : {"compress", "swim", "li", "go"}) {
        c.setScheme(RenameScheme::Conventional);
        cells.push_back({name, c});
        c.setScheme(RenameScheme::VPAllocAtWriteback);
        cells.push_back({name, c});
    }

    std::vector<SimResults> serial = runGrid(cells, 1);
    std::vector<SimResults> parallel = runGrid(cells, 4);
    ASSERT_EQ(serial.size(), cells.size());
    ASSERT_EQ(parallel.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(serial[i].cycles(), parallel[i].cycles())
            << cells[i].benchmark << " cell " << i;
        EXPECT_EQ(serial[i].committed(),
                  parallel[i].committed());
        EXPECT_EQ(serial[i].issued(), parallel[i].issued());
        EXPECT_DOUBLE_EQ(serial[i].ipc(), parallel[i].ipc());
    }
}

TEST(ParallelEngine, EveryBenchmarkOnThreeWorkers)
{
    SimConfig c = tiny();
    c.skipInsts = 200;
    c.measureInsts = 2000;
    std::vector<GridCell> cells;
    for (const auto &name : benchmarkNames())
        cells.push_back({name, c});
    const std::vector<SimResults> all = runGrid(cells, 3);
    ASSERT_EQ(all.size(), benchmarkNames().size());
    for (std::size_t i = 0; i < all.size(); ++i)
        EXPECT_GT(all[i].ipc(), 0.0) << cells[i].benchmark;
}

TEST(ParallelEngine, InterleavedCoreShapesLeaveNoTrace)
{
    // Every cell builds a fresh simulator; only process-global state
    // (interned symbols, the stat-name memo) outlives one. Shape A,
    // then B with another scheme and register-file size, then A again,
    // all on one worker: A's two records must match byte for byte.
    SimConfig a = tiny();
    a.sampling.enable = true;
    a.sampling.periodInsts = 1000;
    a.setScheme(RenameScheme::VPAllocAtIssue);
    a.setPhysRegs(48);
    SimConfig b = a;
    b.setScheme(RenameScheme::ConventionalEarlyRelease);
    b.setPhysRegs(96);

    const std::vector<GridCell> cells{
        {"compress", a}, {"compress", b}, {"compress", a}};
    const std::vector<SimResults> results = runGrid(cells, 1);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(recordText(results[0]), recordText(results[2]));
    EXPECT_NE(recordText(results[0]), recordText(results[1]));
}

} // namespace
} // namespace vpr
