#include "sim/parallel_engine.hh"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "common/logging.hh"
#include "sim/experiment.hh"
#include "sim/result_cache.hh"

namespace vpr
{

namespace
{

/** @p cell's config exactly as it runs: instruction scale applied. */
SimConfig
scaledConfig(const GridCell &cell)
{
    SimConfig config = cell.config;
    applyInstructionScale(config);
    return config;
}

/** Validate @p cell as given, so that an error quotes the values the
 *  user typed, then as it runs. Only the instruction budgets differ
 *  between the two, so an error that only the run raises is the
 *  scale's: it also names VPR_INSTS_SCALE and both budgets, given and
 *  scaled. */
void
validateCell(const GridCell &cell)
{
    const SimConfig &given = cell.config;
    given.validate();
    const SimConfig run = scaledConfig(cell);
    try {
        run.validate();
    } catch (const Error &e) {
        VPR_FATAL(e.what(), " (VPR_INSTS_SCALE=", instructionScale(),
                  " scaled skip_insts ", given.skipInsts, " to ",
                  run.skipInsts, " and measure_insts ", given.measureInsts,
                  " to ", run.measureInsts, ")");
    }
}

SimResults
simulateCell(const GridCell &cell)
{
    const SimConfig config = scaledConfig(cell);
    if (cell.makeStream) {
        std::unique_ptr<TraceStream> stream = cell.makeStream();
        Simulator sim(*stream, config);
        return sim.run();
    }
    Simulator sim(cell.benchmark, config);
    return sim.run();
}

/** @p cell's record. Content-addressed result cache in @p cacheDir
 *  (empty = none): a cell whose (benchmark, provenance, seed, scale)
 *  digest has been simulated before — by this run, an earlier batch
 *  run, or the vpr_simd daemon — is served from disk (@p hit set),
 *  byte-identical to a cold run. Cells with a custom stream factory are
 *  never cached: their workload is not covered by the digest. */
SimResults
runCell(const std::string &cacheDir, const GridCell &cell, bool &hit)
{
    const bool cacheable = !cacheDir.empty() && !cell.makeStream;
    if (cacheable) {
        SimResults cached;
        if (loadCachedResult(cacheDir, cell, cached)) {
            hit = true;
            return cached;
        }
    }
    SimResults results = simulateCell(cell);
    if (cacheable)
        storeCachedResult(cacheDir, cell, results);
    return results;
}

/** Run @p work(k) for every k < @p count on @p workers threads (a
 *  dynamic work queue: cells vary wildly in runtime, IPC differs 5×
 *  between benchmarks, so static striping would leave workers idle).
 *  The first exception stops the queue and is rethrown here. */
template <typename Work>
void
forEach(std::size_t count, unsigned workers, Work &&work)
{
    if (workers <= 1) {
        for (std::size_t k = 0; k < count; ++k)
            work(k);
        return;
    }

    std::atomic<std::size_t> cursor{0};
    std::atomic<bool> failed{false};
    std::exception_ptr firstError;
    std::mutex errorLock;

    auto worker = [&]() {
        for (;;) {
            std::size_t k = cursor.fetch_add(1);
            if (k >= count || failed.load())
                return;
            try {
                work(k);
            } catch (...) {
                std::lock_guard<std::mutex> g(errorLock);
                if (!firstError)
                    firstError = std::current_exception();
                failed.store(true);
                return;
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned t = 0; t < workers; ++t)
        pool.emplace_back(worker);
    for (auto &th : pool)
        th.join();

    if (firstError)
        std::rethrow_exception(firstError);
}

} // namespace

ParallelExperimentEngine::ParallelExperimentEngine(unsigned jobs,
                                                   std::string cacheDir)
    : nJobs(jobs), cacheDir(std::move(cacheDir))
{
    if (nJobs == 0) {
        nJobs = std::thread::hardware_concurrency();
        if (nJobs == 0)
            nJobs = 1;
    }
}

unsigned
ParallelExperimentEngine::workersFor(std::size_t cellCount) const
{
    return cellCount < nJobs ? static_cast<unsigned>(cellCount) : nJobs;
}

std::vector<SimResults>
ParallelExperimentEngine::run(const std::vector<GridCell> &cells) const
{
    // Validate every cell, as given and as it will run, before running
    // any: a bad grid fails on its first bad cell without spending
    // compute on the good ones.
    for (const GridCell &cell : cells)
        validateCell(cell);

    std::vector<SimResults> results(cells.size());
    std::vector<char> hit(cells.size(), 0);  // not vector<bool>: racy
    forEach(cells.size(), workersFor(cells.size()), [&](std::size_t i) {
        bool fromCache = false;
        results[i] = runCell(cacheDir, cells[i], fromCache);
        hit[i] = fromCache;
    });

    // A grid's records share one set of metric columns. When they don't
    // and some came from the cache, an entry may hold a record of a
    // build with other stats under the same format version: re-simulate
    // every cached cell, and count as corrupt and re-store each whose
    // columns change. The export then equals a cold run. Fresh cells
    // that still disagree are the exporter's to report.
    bool agree = true;
    for (const SimResults &r : results)
        agree = agree && r.metrics.sameSchema(results.front().metrics);
    if (agree)
        return results;
    std::vector<std::size_t> cached;
    for (std::size_t i = 0; i < cells.size(); ++i)
        if (hit[i])
            cached.push_back(i);
    forEach(cached.size(), workersFor(cached.size()), [&](std::size_t k) {
        const GridCell &cell = cells[cached[k]];
        SimResults fresh = simulateCell(cell);
        if (!fresh.metrics.sameSchema(results[cached[k]].metrics)) {
            resultCacheCounters().corrupt.fetch_add(1);
            storeCachedResult(cacheDir, cell, fresh);
        }
        results[cached[k]] = std::move(fresh);
    });
    return results;
}

} // namespace vpr
