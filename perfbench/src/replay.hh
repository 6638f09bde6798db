/**
 * @file
 * The traced replay: a workload re-run serially through the same public
 * calls the program makes, in the program's order, with one span per
 * call — FigureDef::build or the request's sweep grid; per cell
 * Simulator(benchmark, config), Core::runUntilCommitted (warm-up and
 * measured), Core::fastForward, Core::resetStats, Core::visitStats;
 * loadCachedResult/storeCachedResult; writeResultsCsv.
 *
 * Cells are built fresh, as a pool-less engine would. The replay must
 * reproduce the untraced outputs bit for bit; the caller checks that
 * before reporting any per-layer number.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "spans.hh"
#include "workloads.hh"

namespace perfbench
{

/** Work counted at the span boundaries of one replay. */
struct ReplayCounts
{
    std::uint64_t cells = 0;         ///< cells simulated
    std::uint64_t allocs = 0;        ///< heap allocations in those cells
    std::uint64_t committed = 0;     ///< detailed commits (warm-up + measured)
    std::uint64_t cycles = 0;        ///< detailed cycles
    std::uint64_t ffInsts = 0;       ///< fast-forwarded instructions
    double execPerCommitSum = 0.0;   ///< over simulated cells
    std::int64_t constructNs = 0;
    std::uint64_t firstWalks = 0;    ///< walks that built a record
    std::uint64_t walks = 0;         ///< walks that revisited one
    std::int64_t firstWalkNs = 0;
    std::int64_t walkNs = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t cacheStores = 0;
    std::int64_t hitNs = 0;
    std::int64_t missNs = 0;
    std::int64_t storeNs = 0;
    std::uint64_t entryBytes = 0;
    std::uint64_t csvCells = 0;
    std::uint64_t csvBytes = 0;
    std::int64_t csvNs = 0;
    std::uint64_t sweepCells = 0;
    std::int64_t sweepNs = 0;
    /** Fast-forwarded instructions per (benchmark) kernel. */
    std::map<std::string, std::uint64_t> ffByBenchmark;
};

class Replayer
{
  public:
    explicit Replayer(SpanRecorder &spans) : spans(spans) {}

    /** One cell through Simulator::run's protocol, made of public
     *  calls. */
    vpr::SimResults runCell(const vpr::GridCell &cell);

    /** The engine's cached-cell step: load from @p cacheDir, or
     *  simulate and store. */
    vpr::SimResults lookupCell(const std::string &cacheDir,
                               const vpr::GridCell &cell);

    /** FigureDef::build of one paper grid (see buildFigureGrid). */
    std::vector<vpr::GridCell> buildFigure(const std::string &figure,
                                           bool sampled, std::uint64_t seed);

    /** The sweep grid of one request (see SweepRequest::grid). */
    std::vector<vpr::GridCell> buildRequest(const SweepRequest &request);

    /** The daemon's CSV response body for a whole request grid. */
    std::string writeCsv(const std::vector<vpr::GridCell> &cells,
                         const std::vector<vpr::SimResults> &results);

    const ReplayCounts &counts() const { return c; }

  private:
    void runDetailed(vpr::Core &core, const vpr::SimConfig &config,
                     vpr::SimResults &r);
    void runSampled(vpr::Core &core, const vpr::SimConfig &config,
                    const std::string &benchmark, vpr::SimResults &r);
    void detailedRun(vpr::Core &core, std::uint64_t target,
                     const char *span);
    void fastForward(vpr::Core &core, std::uint64_t n, bool warm,
                     const std::string &benchmark);
    void walk(vpr::Core &core, vpr::MetricsRecord &rec);

    SpanRecorder &spans;
    ReplayCounts c;
};

/** trace.ns_per_record: drain TraceStream::nextBatch in isolation over
 *  the same kernels and record counts the replay fast-forwarded. */
double traceNsPerRecord(const std::map<std::string, std::uint64_t> &counts,
                        std::uint64_t seed);

/** One reported metric. */
struct NamedValue
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** The per-layer metrics a replay's spans and counts give. Shares are
 *  self time over the replay wall (the root span). */
std::vector<NamedValue> layerMetrics(const std::vector<Span> &spans,
                                     const ReplayCounts &counts,
                                     double traceNs);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
