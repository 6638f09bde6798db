/**
 * @file
 * Steady-state allocation regression for the detailed hot loop.
 *
 * After the data-oriented refactors (completion calendar, packed hot
 * state, ring deques, interned stat symbols) the per-cycle path must
 * not touch the heap at all once every pool and ring has grown to its
 * working size. These tests pin that property with the alloc_count
 * hook — per measured interval AND per individual simulated cycle, so
 * a single rare-path allocation (a ring growing, a map rehashing, a
 * string materialising) fails the suite instead of hiding in an
 * interval average.
 *
 * The warm-up length matters: ring deques and MSHR vectors grow on
 * demand, and the swim kernel's working set stops provoking growth
 * comfortably before 60k committed instructions. Shrinking the warm-up
 * makes the test flaky-by-construction; don't.
 *
 * The last two tests pin the fixed cost around that loop instead: the
 * exact allocation counts of one fresh grid cell and of one
 * result-cache hit.
 *
 * Wrong-path fetch runs in Stall mode, like every BM_Simulator* row:
 * under squash-mode recovery the IQ wait lists accumulate stale
 * waiters that only drain when their tag is next broadcast, so their
 * capacities keep converging for hundreds of thousands of cycles —
 * the steady state exists but is not reachable in test time.
 */

#include <gtest/gtest.h>

#include <filesystem>

#include "core/core.hh"
#include "sim/config.hh"
#include "sim/experiment.hh"
#include "sim/metrics.hh"
#include "sim/result_cache.hh"
#include "trace/kernels/kernels.hh"

#include "../support/alloc_count.hh"

namespace vpr
{
namespace
{

using testsupport::AllocGuard;

constexpr std::uint64_t kWarmupInsts = 60000;

/** The BM_GridCellOverhead cell: a tiny sampled swim run. */
SimConfig
tinySampledCell()
{
    SimConfig config = paperConfig();
    config.skipInsts = 0;
    config.measureInsts = 4000;
    config.core.fetch.wrongPath = WrongPathMode::Stall;
    config.sampling.enable = true;
    config.sampling.periodInsts = 2000;
    return config;
}

TEST(HotLoopAlloc, ZeroAllocationsPerMeasuredInterval)
{
    SimConfig config = paperConfig();
    config.core.fetch.wrongPath = WrongPathMode::Stall;
    auto stream = makeBenchmarkStream("swim");
    Core core(*stream, config.core);

    core.runUntilCommitted(kWarmupInsts);
    ASSERT_GE(core.committedInsts(), kWarmupInsts);

    AllocGuard g;
    core.runUntilCommitted(kWarmupInsts + 20000);
    EXPECT_EQ(g.count(), 0u)
        << "heap allocations leaked into the steady-state hot loop";
}

TEST(HotLoopAlloc, ZeroAllocationsPerSimulatedCycle)
{
    SimConfig config = paperConfig();
    config.core.fetch.wrongPath = WrongPathMode::Stall;
    auto stream = makeBenchmarkStream("swim");
    Core core(*stream, config.core);

    core.runUntilCommitted(kWarmupInsts);

    // Per-cycle, not per-interval: every single tick must stay off the
    // heap, so one allocating cycle cannot hide among thousands.
    for (int cycle = 0; cycle < 5000; ++cycle) {
        AllocGuard g;
        core.tick();
        ASSERT_EQ(g.count(), 0u)
            << "allocation during steady-state cycle " << cycle
            << " (cycle " << core.cycle() << " of the run)";
    }
}

TEST(HotLoopAlloc, MetricsCollectionIsAllocationFreeWhenWarm)
{
    // The per-interval metrics path: after one collection has interned
    // every symbol and sized the record's storage, re-collecting into
    // the same record must not allocate. This is what lets a sampled
    // run export every measurement interval with zero fixed overhead.
    SimConfig config = paperConfig();
    config.core.fetch.wrongPath = WrongPathMode::Stall;
    auto stream = makeBenchmarkStream("swim");
    Core core(*stream, config.core);
    core.runUntilCommitted(5000);

    MetricsRecord warm;
    core.visitStats(warm);
    core.visitStats(warm);

    AllocGuard g;
    core.visitStats(warm);
    EXPECT_EQ(g.count(), 0u)
        << "warm metrics collection touched the heap";
}

TEST(HotLoopAlloc, FreshGridCellAllocationCountIsPinned)
{
    // Every grid cell constructs its simulator from scratch, so this
    // fixed heap traffic — construct, run and collect one tiny sampled
    // cell, the BM_GridCellOverhead configuration — is what each paper
    // cell pays beyond its instructions. The first cell fills what is
    // paid once per process (interned symbols, the stat-name memo,
    // verified schemas); after it the count is exact and repeats run
    // to run. A deliberate change re-pins it; an accidental one fails
    // here before it is big enough to move wall time.
    constexpr std::uint64_t kFreshCellAllocs = 672;

    const std::vector<GridCell> cells{{"swim", tinySampledCell()}};
    runGrid(cells, 1);

    AllocGuard g;
    const std::vector<SimResults> results = runGrid(cells, 1);
    EXPECT_EQ(g.count(), kFreshCellAllocs);
    EXPECT_GT(results[0].ipc(), 0.0);
}

TEST(HotLoopAlloc, CachedHitAllocationCountIsPinned)
{
    // A result-cache hit reads one file, checks it, and fills a copy of
    // the memoised schema's record with the values: its heap traffic
    // must not grow with the ~800 metrics of a record. Storing the cell
    // memoises its schema; after that the count is exact.
    constexpr std::uint64_t kCachedHitAllocs = 51;

    namespace fs = std::filesystem;
    const std::string dir =
        (fs::path(::testing::TempDir()) / "vpr_alloc_hit").string();
    fs::remove_all(dir);
    const GridCell cell{"swim", tinySampledCell()};

    // However many schemas the process met before (damaged entries that
    // still parse, a cache shared by several builds), the one in use is
    // memoised: meet more than the memo holds first.
    for (int i = 0; i < 10; ++i) {
        GridCell other = cell;
        other.config.seed = 100 + i;
        SimResults record;
        record.metrics.setUInt("alloc_pin.schema" + std::to_string(i),
                               "one of many schemas", 1);
        storeCachedResult(dir, other, record);
        ASSERT_TRUE(loadCachedResult(dir, other, record));
    }
    runGrid({cell}, 1, dir);
    SimResults first;
    ASSERT_TRUE(loadCachedResult(dir, cell, first));

    SimResults out;
    AllocGuard g;
    const bool hit = loadCachedResult(dir, cell, out);
    const std::uint64_t allocs = g.count();
    ASSERT_TRUE(hit);
    EXPECT_EQ(allocs, kCachedHitAllocs);
    EXPECT_GT(out.metrics.size(), 700u);
    EXPECT_EQ(out.ipc(), first.ipc());
}

} // namespace
} // namespace vpr
