/**
 * @file
 * The benchmark's workloads, built from its workload seed: the six paper
 * grids (detailed, or with each figure's registered sampling preset) and
 * the resweep daemon's request sequence. Also the per-cell correctness
 * checks and the digest of simulated metrics that an A/B compares.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/parallel_engine.hh"

namespace perfbench
{

enum class Workload { PaperDetailed, PaperSampled, ResweepDaemon };

const char *workloadName(Workload w);
bool parseWorkload(const std::string &text, Workload &out);

/** The VPR_INSTS_SCALE a workload runs under. paper_detailed is cut to
 *  a quarter of the bench default; paper_sampled needs scale 2 so the
 *  24,000-instruction fig4/fig5 periods give every cell 10 intervals. */
double workloadScale(Workload w);

/** Fewest intervals a paper_sampled cell may measure. */
constexpr std::uint64_t kMinSampledIntervals = 10;

/** Table 2, Figs 4-7 and regpressure: the paper's grids. */
const std::vector<std::string> &paperFigures();

/** One figure's grid: FigureDef::build() with every cell's seed set to
 *  the workload seed and, when @p sampled, the figure's registered
 *  --sampling-preset applied. Throws if the figure is not registered. */
std::vector<vpr::GridCell> buildFigureGrid(const std::string &figure,
                                           bool sampled, std::uint64_t seed);

/** Instructions a cell simulates (fast-forwarded or detailed): its
 *  skip + measure budget at the process's instruction scale. */
std::uint64_t cellInstructions(const vpr::GridCell &cell);

/**
 * Empty when @p r is a plausible result of @p cell, otherwise why not:
 * IPC non-finite or outside (0, 8], measured commits short of the
 * budget, or (with @p minIntervals > 0) a sampled cell with fewer
 * intervals.
 */
std::string checkCell(const vpr::GridCell &cell, const vpr::SimResults &r,
                      std::uint64_t minIntervals);

/** Bitwise equality of two result records (names, kinds, values). */
bool sameRecord(const vpr::MetricsRecord &a, const vpr::MetricsRecord &b);

/** FNV-1a digest accumulator over simulated metrics (never cfg.*). */
class MetricDigest
{
  public:
    void add(const std::string &text);
    /** Every metric of @p r, as name=value text. */
    void addRecord(const std::string &benchmark, const vpr::SimResults &r);
    /** Every non-"cfg." column of every row of a results CSV body. */
    void addCsv(const std::string &csv);
    std::string hex() const;

  private:
    std::uint64_t h = 0xcbf29ce484222325ull;
};

/**
 * One resweep request: a sampled regfile-size x scheme sweep over 1-3
 * benchmarks and 1-4 regfile sizes at one miss penalty. The universe is
 * 9 benchmarks x 7 sizes x 4 schemes x 3 penalties = 756 cells.
 */
struct SweepRequest
{
    std::vector<std::string> benchmarks;
    std::vector<unsigned> regfileSizes;
    unsigned missPenalty = 50;
    std::uint64_t seed = 0;

    /** The body's "set" assignments. */
    std::vector<std::string> assignments() const;

    /** The POST /sweep body. */
    std::string body() const;

    /** Cells the daemon expands the request into. */
    std::size_t cellCount() const;

    /** The grid, built the way the daemon builds it: paper base config,
     *  the body's "set" assignments, then buildSweepGrid over the
     *  body's axes. */
    std::vector<vpr::GridCell> grid() const;
};

/** Budgets every request sets (scaled by the daemon's scale, 1). */
constexpr std::uint64_t kRequestSkipInsts = 20000;
constexpr std::uint64_t kRequestMeasureInsts = 200000;

/**
 * Request sequence @p stream of the workload seed @p seed (deterministic
 * per pair). Every request carries @p seed as its cells' seed; the
 * stream only varies which cells the requests cover, so each pass of a
 * run can send a fresh sequence.
 */
std::vector<SweepRequest> generateRequests(std::uint64_t seed,
                                           std::uint64_t stream,
                                           std::size_t count);

/** Empty when a results CSV body has @p rows data rows and every
 *  row's core.ipc is finite and in (0, 8]; otherwise why not. */
std::string checkCsvBody(const std::string &csv, std::size_t rows);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
