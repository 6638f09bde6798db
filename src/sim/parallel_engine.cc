#include "sim/parallel_engine.hh"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

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

SimResults
runCell(const GridCell &cell)
{
    // Content-addressed result cache: a cell whose (benchmark,
    // provenance, seed, scale) digest has been simulated before — by
    // this run, an earlier batch run, or the vpr_simd daemon — is
    // served from disk, byte-identical to a cold run. Cells with a
    // custom stream factory are never cached: their workload is not
    // covered by the provenance digest.
    const std::string &cacheDir = cell.config.resultCache.dir;
    const bool cacheable = !cacheDir.empty() && !cell.makeStream;
    if (cacheable) {
        SimResults cached;
        if (loadCachedResult(cacheDir, cell, cached))
            return cached;
    }

    const SimConfig config = scaledConfig(cell);
    SimResults results = [&] {
        if (cell.makeStream) {
            std::unique_ptr<TraceStream> stream = cell.makeStream();
            Simulator sim(*stream, config);
            return sim.run();
        }
        Simulator sim(cell.benchmark, config);
        return sim.run();
    }();

    if (cacheable && cell.config.resultCache.save)
        storeCachedResult(cacheDir, cell, results);
    return results;
}

} // namespace

ParallelExperimentEngine::ParallelExperimentEngine(unsigned jobs)
    : nJobs(jobs)
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
    // Validate every cell exactly as it will run before running any: a
    // bad grid fails on its first bad cell without spending compute on
    // the good ones.
    for (const GridCell &cell : cells)
        scaledConfig(cell).validate();

    std::vector<SimResults> results(cells.size());

    const unsigned workers = workersFor(cells.size());
    if (workers <= 1) {
        for (std::size_t i = 0; i < cells.size(); ++i)
            results[i] = runCell(cells[i]);
        return results;
    }

    // Dynamic work queue: cells vary wildly in runtime (IPC differs 5×
    // between benchmarks), so static striping would leave workers idle.
    std::atomic<std::size_t> cursor{0};
    std::atomic<bool> failed{false};
    std::exception_ptr firstError;
    std::mutex errorLock;

    auto worker = [&]() {
        for (;;) {
            std::size_t i = cursor.fetch_add(1);
            if (i >= cells.size() || failed.load())
                return;
            try {
                results[i] = runCell(cells[i]);
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
    return results;
}

} // namespace vpr
