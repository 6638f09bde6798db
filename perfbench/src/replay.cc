#include "replay.hh"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "sim/experiment.hh"
#include "sim/result_cache.hh"
#include "sim/results_io.hh"
#include "support/alloc_count.hh"
#include "trace/kernels/kernels.hh"

namespace perfbench
{

vpr::SimResults
Replayer::runCell(const vpr::GridCell &cell)
{
    // ParallelExperimentEngine applies the instruction scale per cell.
    vpr::SimConfig config = cell.config;
    vpr::applyInstructionScale(config);

    vpr::SimResults r;
    spans.timed("cell", [&] {
        vpr::testsupport::AllocGuard allocs;
        std::unique_ptr<vpr::Simulator> sim;
        c.constructNs += spans.timed("sim.construct", [&] {
            sim = std::make_unique<vpr::Simulator>(cell.benchmark, config);
        });
        vpr::Core &core = sim->core();
        if (config.sampling.enable)
            runSampled(core, config, cell.benchmark, r);
        else
            runDetailed(core, config, r);
        spans.timed("sim.destroy", [&] { sim.reset(); });
        c.allocs += allocs.count();
    });
    ++c.cells;
    c.execPerCommitSum += r.executionsPerCommit();
    return r;
}

void
Replayer::detailedRun(vpr::Core &core, std::uint64_t target,
                      const char *span)
{
    const std::uint64_t committed0 = core.committedInsts();
    const std::uint64_t cycle0 = core.cycle();
    spans.timed(span, [&] { core.runUntilCommitted(target); });
    c.committed += core.committedInsts() - committed0;
    c.cycles += core.cycle() - cycle0;
}

void
Replayer::fastForward(vpr::Core &core, std::uint64_t n, bool warm,
                      const std::string &benchmark)
{
    std::uint64_t done = 0;
    spans.timed("core.ff", [&] { done = core.fastForward(n, warm); });
    c.ffInsts += done;
    c.ffByBenchmark[benchmark] += done;
}

void
Replayer::walk(vpr::Core &core, vpr::MetricsRecord &rec)
{
    const bool first = rec.empty();
    const std::int64_t ns =
        spans.timed("stats.walk", [&] { core.visitStats(rec); });
    (first ? c.firstWalks : c.walks) += 1;
    (first ? c.firstWalkNs : c.walkNs) += ns;
}

void
Replayer::runDetailed(vpr::Core &core, const vpr::SimConfig &config,
                      vpr::SimResults &r)
{
    // Simulator::run with sampling off: warm up, reset, measure, collect.
    if (config.skipInsts > 0)
        detailedRun(core, config.skipInsts, "core.warmup");
    spans.timed("core.reset", [&] { core.resetStats(); });
    detailedRun(core, core.committedInsts() + config.measureInsts,
                "core.detailed");
    walk(core, r.metrics);
}

void
Replayer::runSampled(vpr::Core &core, const vpr::SimConfig &config,
                     const std::string &benchmark, vpr::SimResults &r)
{
    // Simulator::runSampled: fast-forward the skip, then per period
    // fast-forward / warm up / reset / measure / walk, folding the
    // interval records (UInt columns sum, Real columns average) and
    // appending the core.ipc.sampled.* estimator.
    const vpr::SamplingConfig &sp = config.sampling;
    const std::uint64_t ffInsts =
        sp.periodInsts - sp.warmupInsts - sp.detailedInsts;
    const std::uint64_t nIntervals = config.measureInsts / sp.periodInsts;
    if (config.skipInsts > 0)
        fastForward(core, config.skipInsts, sp.functionalWarming, benchmark);

    vpr::stats::SampleEstimator ipcSampled{
        "ipc.sampled", "sampled-IPC estimator over detailed intervals"};
    vpr::stats::Distribution ipcDist = vpr::stats::Distribution::evenBuckets(
        "ipc.sampled.dist", "per-interval IPC observations (milli-IPC)", 0,
        8000, 16);

    vpr::MetricsRecord &rec = r.metrics;
    std::vector<std::uint64_t> usum;
    std::vector<double> rsum;
    std::uint64_t measured = 0;
    for (std::uint64_t i = 0; i < nIntervals; ++i) {
        if (ffInsts > 0)
            fastForward(core, ffInsts, sp.functionalWarming, benchmark);
        if (sp.warmupInsts > 0)
            detailedRun(core, core.committedInsts() + sp.warmupInsts,
                        "core.warmup");
        spans.timed("core.reset", [&] { core.resetStats(); });
        detailedRun(core, core.committedInsts() + sp.detailedInsts,
                    "core.detailed");
        walk(core, rec);
        spans.timed("sim.aggregate", [&] {
            if (nIntervals > 1) {
                const std::vector<vpr::Metric> &cols = rec.all();
                if (measured == 0) {
                    usum.assign(cols.size(), 0);
                    rsum.assign(cols.size(), 0.0);
                }
                if (cols.size() != usum.size())
                    throw std::runtime_error("interval schema changed");
                for (std::size_t k = 0; k < cols.size(); ++k) {
                    if (cols[k].kind == vpr::Metric::Kind::UInt)
                        usum[k] += cols[k].uval;
                    else
                        rsum[k] += cols[k].rval;
                }
            }
            const double ipc = rec.real("core.ipc");
            ipcSampled.sample(ipc);
            ipcDist.sample(static_cast<std::uint64_t>(ipc * 1000.0 + 0.5));
        });
        ++measured;
        if (core.done())
            break;
    }
    if (measured == 0)
        throw std::runtime_error("sampled cell measured no interval");

    spans.timed("sim.aggregate", [&] {
        if (measured > 1) {
            for (std::size_t k = 0; k < rec.all().size(); ++k) {
                const vpr::Metric &m = rec.all()[k];
                if (m.kind == vpr::Metric::Kind::UInt)
                    rec.setUInt(m.nameSym, m.descSym, usum[k]);
                else
                    rec.setReal(m.nameSym, m.descSym,
                                rsum[k] / static_cast<double>(measured));
            }
        }
        vpr::stats::StatGroup sampledGroup{"core"};
        sampledGroup.add(&ipcSampled);
        sampledGroup.add(&ipcDist);
        sampledGroup.visit(rec);
    });
}

vpr::SimResults
Replayer::lookupCell(const std::string &cacheDir, const vpr::GridCell &cell)
{
    vpr::SimResults r;
    spans.timed("lookup", [&] {
        bool hit = false;
        const std::int64_t loadNs = spans.timed("result_cache.load", [&] {
            hit = vpr::loadCachedResult(cacheDir, cell, r);
        });
        if (hit) {
            ++c.cacheHits;
            c.hitNs += loadNs;
            return;
        }
        ++c.cacheMisses;
        c.missNs += loadNs;
        r = runCell(cell);
        c.storeNs += spans.timed("result_cache.store", [&] {
            vpr::storeCachedResult(cacheDir, cell, r);
        });
        ++c.cacheStores;
        std::error_code ec;
        const auto bytes = std::filesystem::file_size(
            vpr::resultCachePath(cacheDir, cell.benchmark,
                                 vpr::resultCacheDigest(cell)),
            ec);
        c.entryBytes += ec ? 0 : bytes;
    });
    return r;
}

std::vector<vpr::GridCell>
Replayer::buildFigure(const std::string &figure, bool sampled,
                      std::uint64_t seed)
{
    std::vector<vpr::GridCell> cells;
    c.sweepNs += spans.timed("sweep.build", [&] {
        cells = buildFigureGrid(figure, sampled, seed);
    });
    c.sweepCells += cells.size();
    return cells;
}

std::vector<vpr::GridCell>
Replayer::buildRequest(const SweepRequest &request)
{
    std::vector<vpr::GridCell> cells;
    c.sweepNs += spans.timed("sweep.build", [&] { cells = request.grid(); });
    c.sweepCells += cells.size();
    return cells;
}

std::string
Replayer::writeCsv(const std::vector<vpr::GridCell> &cells,
                   const std::vector<vpr::SimResults> &results)
{
    std::string body;
    c.csvNs += spans.timed("results_io.csv", [&] {
        std::vector<std::size_t> indices(cells.size());
        std::iota(indices.begin(), indices.end(), 0);
        std::ostringstream os;
        vpr::writeResultsCsv(os, "vpr_simd-sweep", vpr::ShardSpec{},
                             indices, cells, results);
        body = os.str();
    });
    c.csvCells += cells.size();
    c.csvBytes += body.size();
    return body;
}

double
traceNsPerRecord(const std::map<std::string, std::uint64_t> &counts,
                 std::uint64_t seed)
{
    // The batch size Core::fastForward's functional warming pulls.
    std::vector<vpr::TraceRecord> batch(256);
    std::uint64_t total = 0;
    std::int64_t ns = 0;
    for (const auto &[benchmark, n] : counts) {
        const auto stream = vpr::makeBenchmarkStream(benchmark, seed);
        const std::int64_t t0 = nowNs();
        std::uint64_t done = 0;
        while (done < n) {
            const std::size_t want = static_cast<std::size_t>(
                std::min<std::uint64_t>(n - done, batch.size()));
            const std::size_t got = stream->nextBatch(batch.data(), want);
            if (got == 0)
                break;
            done += got;
        }
        ns += nowNs() - t0;
        total += done;
    }
    return total ? static_cast<double>(ns) / static_cast<double>(total)
                 : 0.0;
}

std::vector<NamedValue>
layerMetrics(const std::vector<Span> &spans, const ReplayCounts &c,
             double traceNs)
{
    const std::map<std::string, std::int64_t> byName = selfTimeByName(spans);
    const std::map<std::string, std::int64_t> byLayer =
        selfTimeByLayer(spans);
    const double wall =
        spans.empty()
            ? 0.0
            : static_cast<double>(spans.front().end - spans.front().start);
    auto lookup = [](const std::map<std::string, std::int64_t> &m,
                     const char *key) {
        const auto it = m.find(key);
        return it == m.end() ? 0.0 : static_cast<double>(it->second);
    };
    auto self = [&](const char *name) { return lookup(byName, name); };
    auto layer = [&](const char *name) { return lookup(byLayer, name); };
    auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    auto share = [&](double ns) { return per(ns, wall); };
    auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    const double detailedNs = self("core.warmup") + self("core.detailed");

    return {
        {"core.detailed_share", share(self("core.detailed")), "share"},
        {"core.warmup_share", share(self("core.warmup")), "share"},
        {"core.ns_per_inst", per(detailedNs, d(c.committed)), "ns"},
        {"core.ns_per_cycle", per(detailedNs, d(c.cycles)), "ns"},
        {"core.committed", d(c.committed), "count"},
        {"core.cycles", d(c.cycles), "count"},
        {"core.exec_per_commit", per(c.execPerCommitSum, d(c.cells)),
         "ratio"},
        {"core.ff_share", share(self("core.ff")), "share"},
        {"core.ff_ns_per_inst", per(self("core.ff"), d(c.ffInsts)), "ns"},
        {"core.ff_insts", d(c.ffInsts), "count"},
        {"trace.ns_per_record", traceNs, "ns"},
        {"trace.ff_share_est", per(traceNs * d(c.ffInsts), self("core.ff")),
         "share"},
        {"stats.first_walk_us",
         per(static_cast<double>(c.firstWalkNs), d(c.firstWalks)) / 1e3,
         "us"},
        {"stats.walk_us", per(static_cast<double>(c.walkNs), d(c.walks)) / 1e3,
         "us"},
        {"stats.walks", d(c.firstWalks + c.walks), "count"},
        {"stats.share", share(layer("stats")), "share"},
        {"sim.cells", d(c.cells), "count"},
        {"sim.construct_us",
         per(static_cast<double>(c.constructNs), d(c.cells)) / 1e3, "us"},
        {"sim.construct_share", share(self("sim.construct")), "share"},
        {"sim.allocs_per_cell", per(d(c.allocs), d(c.cells)), "count"},
        {"result_cache.hit_us",
         per(static_cast<double>(c.hitNs), d(c.cacheHits)) / 1e3, "us"},
        {"result_cache.miss_us",
         per(static_cast<double>(c.missNs), d(c.cacheMisses)) / 1e3, "us"},
        {"result_cache.store_us",
         per(static_cast<double>(c.storeNs), d(c.cacheStores)) / 1e3, "us"},
        {"result_cache.hit_ratio",
         per(d(c.cacheHits), d(c.cacheHits + c.cacheMisses)), "ratio"},
        {"result_cache.entry_bytes", per(d(c.entryBytes), d(c.cacheStores)),
         "B"},
        {"result_cache.share", share(layer("result_cache")), "share"},
        {"results_io.csv_us_per_cell",
         per(static_cast<double>(c.csvNs), d(c.csvCells)) / 1e3, "us"},
        {"results_io.bytes_per_cell", per(d(c.csvBytes), d(c.csvCells)), "B"},
        {"results_io.share", share(layer("results_io")), "share"},
        {"sweep.build_us_per_cell",
         per(static_cast<double>(c.sweepNs), d(c.sweepCells)) / 1e3, "us"},
        {"sweep.share", share(layer("sweep")), "share"},
        {"replay.attributed_share", share(wall - layer("bench")), "share"},
    };
}

} // namespace perfbench
