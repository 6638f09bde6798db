/**
 * @file
 * ParallelExperimentEngine: runs (benchmark × scheme × parameter) grid
 * cells on a pool of worker threads.
 *
 * Every Simulator owns its trace stream and core, so grid cells are
 * share-nothing and embarrassingly parallel; the only shared state is
 * the atomic work-queue cursor. Results are written into a slot indexed
 * by the cell's position, so the output order — and therefore every
 * table printed from it — is byte-identical regardless of the number of
 * jobs or the interleaving of workers.
 */

#ifndef VPR_SIM_PARALLEL_ENGINE_HH
#define VPR_SIM_PARALLEL_ENGINE_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/simulator.hh"

namespace vpr
{

/**
 * One cell of an experiment grid: a benchmark under a configuration.
 * By default the benchmark name resolves through makeBenchmarkStream;
 * a cell may instead carry its own stream factory (custom traces), which
 * must be a pure function so re-running the cell is deterministic.
 */
struct GridCell
{
    GridCell() = default;

    GridCell(std::string bench, SimConfig cfg,
             std::function<std::unique_ptr<TraceStream>()> stream = {})
        : benchmark(std::move(bench)), config(std::move(cfg)),
          makeStream(std::move(stream))
    {}

    std::string benchmark;
    SimConfig config;
    std::function<std::unique_ptr<TraceStream>()> makeStream;
};

/** The work-queue + thread-pool experiment runner. */
class ParallelExperimentEngine
{
  public:
    /**
     * @param jobs worker threads; 1 = serial in the calling thread,
     *        0 = one per hardware thread.
     * @param cacheDir result-cache directory (sim/result_cache.hh);
     *        empty runs every cell.
     */
    explicit ParallelExperimentEngine(unsigned jobs = 1,
                                      std::string cacheDir = {});

    /**
     * Run every cell and return results in cell order. The instruction
     * scale (VPR_INSTS_SCALE) is applied to each cell exactly as the
     * serial runOne does, and every scaled cell is validated before any
     * runs (the first invalid one throws Error). Deterministic: results
     * depend only on the cells, never on jobs, scheduling or the
     * cache. With a cache directory, cells are served from the result
     * cache; if the records then disagree on their metric columns,
     * every cached cell is re-simulated (and its entry repaired when
     * its columns change), so the results equal a cold run's.
     */
    std::vector<SimResults> run(const std::vector<GridCell> &cells) const;

    unsigned jobs() const { return nJobs; }

    /** Threads actually used for @p cellCount cells. */
    unsigned workersFor(std::size_t cellCount) const;

  private:
    unsigned nJobs;
    std::string cacheDir;
};

} // namespace vpr

#endif // VPR_SIM_PARALLEL_ENGINE_HH
