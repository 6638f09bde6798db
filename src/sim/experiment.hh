/**
 * @file
 * Experiment harness: runs (benchmark × scheme × parameters) grids and
 * formats tables in the paper's style. vpr_sim's figure targets, its
 * sweeps and the vpr_simd daemon all run through these helpers.
 */

#ifndef VPR_SIM_EXPERIMENT_HH
#define VPR_SIM_EXPERIMENT_HH

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "sim/parallel_engine.hh"
#include "sim/simulator.hh"

namespace vpr
{

/** Harmonic mean (the paper's average for IPC tables). */
double harmonicMean(const std::vector<double> &values);

/**
 * Run one benchmark under @p config and return the results.
 */
SimResults runOne(const std::string &benchmark, SimConfig config);

/**
 * Run a whole grid of cells on the parallel engine with @p jobs worker
 * threads (1 = serial, 0 = one per hardware thread) and return results
 * in cell order, serving and storing cells through the result cache in
 * @p cacheDir when it is not empty. This is the workhorse every driver
 * sweeps through; results are independent of jobs and of the cache.
 */
std::vector<SimResults> runGrid(const std::vector<GridCell> &cells,
                                unsigned jobs,
                                const std::string &cacheDir = {});

/**
 * A deterministic slice of a grid: shard @p index of @p count. Cells
 * are dealt round-robin (cell i belongs to shard i % count) so unequal
 * cell runtimes balance across hosts. count == 1 is the whole grid.
 */
struct ShardSpec
{
    unsigned index = 0;
    unsigned count = 1;

    bool active() const { return count > 1; }
};

/** Strictly parse an "i/N" shard spec (0 <= i < N); fatal()s on user
 *  error so a CI matrix cannot silently run the wrong slice. */
ShardSpec parseShard(const char *text);

/** The global cell indices belonging to @p shard, ascending. */
std::vector<std::size_t> shardCellIndices(std::size_t totalCells,
                                          const ShardSpec &shard);

/** The subset of @p cells selected by @p indices, in index order. */
std::vector<GridCell> selectCells(const std::vector<GridCell> &cells,
                                  const std::vector<std::size_t> &indices);

/** Scale factor for instruction budgets: the VPR_INSTS_SCALE
 *  environment variable (parsed by parseInstsScale), or 1, read at
 *  every call. Trades time for fidelity; throws Error on a bad
 *  value. */
double instructionScale();

/** Strictly parse a VPR_INSTS_SCALE value: a finite positive decimal
 *  number, the whole string (no blanks, no hex). Anything else is an
 *  Error naming VPR_INSTS_SCALE. */
double parseInstsScale(const char *text);

/** Worker-thread count for a grid when no --jobs was given: the
 *  VPR_JOBS environment variable (parsed by parseJobs), or 1. */
unsigned defaultJobs();

/** Strictly parse a worker count given by @p what (--jobs or
 *  VPR_JOBS): "0" = one per hardware thread, else 1-4096 workers.
 *  Anything else is an Error naming @p what. */
unsigned parseJobs(const char *text, const char *what);

/** The --result-cache=<dir> value: a non-empty directory. An empty one
 *  (say, from an unset shell variable) is an Error naming
 *  --result-cache, never a silently uncached run. */
std::string parseCacheDir(const char *text);

/** Apply the global instruction scale to a config. A budget whose
 *  scaled value does not fit 64 bits is an Error naming its key and
 *  VPR_INSTS_SCALE. */
void applyInstructionScale(SimConfig &config);

/** Pretty-printing helpers for paper-style tables. @{ */
void printTableHeader(std::ostream &os, const std::string &title,
                      const std::vector<std::string> &columns);
void printTableRow(std::ostream &os, const std::string &label,
                   const std::vector<double> &values, int precision = 2);
/** @} */

} // namespace vpr

#endif // VPR_SIM_EXPERIMENT_HH
