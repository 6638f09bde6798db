/** @file Unit tests for the ParallelExperimentEngine. */

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include "sim/experiment.hh"
#include "trace/kernels/kernels.hh"

#include "../support/expect_error.hh"

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

/** Sets VPR_INSTS_SCALE for its lifetime, then restores the value (or
 *  the absence) it found. */
class ScopedInstsScale
{
  public:
    explicit ScopedInstsScale(const char *value)
    {
        if (const char *old = std::getenv("VPR_INSTS_SCALE"))
            saved = old;
        ::setenv("VPR_INSTS_SCALE", value, 1);
    }

    ~ScopedInstsScale()
    {
        if (saved)
            ::setenv("VPR_INSTS_SCALE", saved->c_str(), 1);
        else
            ::unsetenv("VPR_INSTS_SCALE");
    }

    ScopedInstsScale(const ScopedInstsScale &) = delete;
    ScopedInstsScale &operator=(const ScopedInstsScale &) = delete;

  private:
    std::optional<std::string> saved;
};

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

TEST(ParallelEngine, CellsAreValidatedAsTypedThenAsScaled)
{
    // A cell invalid as typed is quoted as typed; one that only
    // VPR_INSTS_SCALE makes invalid also names the scale and both
    // budgets, typed and scaled; a valid cell commits its scaled
    // budget.
    SimConfig c = tiny();
    {
        ScopedInstsScale scale("0.05");
        c.measureInsts = std::numeric_limits<std::uint64_t>::max();
        EXPECT_VPR_ERROR(
            runGrid({{"compress", c}}, 1),
            "measure_insts \\(18446744073709551615\\) must be in");

        c = tiny();
        c.measureInsts = 40000;
        const std::vector<SimResults> r = runGrid({{"compress", c}}, 1);
        // The 8-wide commit can overshoot the target within the last
        // cycle.
        EXPECT_GE(r[0].committed(), 2000u);
        EXPECT_LT(r[0].committed(), 2008u);
    }
    {
        ScopedInstsScale scale("2");
        c = tiny();
        c.measureInsts = 600000000000000;
        EXPECT_VPR_ERROR(runGrid({{"compress", c}}, 1),
                         "measure_insts \\(1200000000000000\\) .*"
                         "VPR_INSTS_SCALE=2 .*"
                         "measure_insts 600000000000000 to 1200000000000000");
    }
    {
        ScopedInstsScale scale("0.01");
        c = tiny();
        c.measureInsts = 200000;
        c.sampling.enable = true;
        c.sampling.periodInsts = 20000;
        EXPECT_VPR_ERROR(runGrid({{"compress", c}}, 1),
                         "sim.sampling.period_insts \\(20000\\) exceeds "
                         "measure_insts \\(2000\\).*VPR_INSTS_SCALE=0.01 .*"
                         "measure_insts 200000 to 2000");
    }
}

} // namespace
} // namespace vpr
