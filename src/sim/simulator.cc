#include "sim/simulator.hh"

#include <iomanip>
#include <iostream>

#include "common/io/zio.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "sim/checkpoint.hh"
#include "trace/kernels/kernels.hh"

namespace vpr
{

namespace
{

/** Component salt for deriveSeed: the wrong-path synthesis RNG. */
constexpr std::uint64_t kWrongPathSalt = 0x77f00dull;

/** Thread the run's master seed into every stochastic component the
 *  config controls; with seed 0 the per-component defaults apply. */
void
threadSeed(SimConfig &cfg)
{
    if (cfg.seed != 0)
        cfg.core.fetch.wrongPathSeed =
            deriveSeed(cfg.seed, kWrongPathSalt);
}

} // namespace

Simulator::Simulator(TraceStream &externalStream, const SimConfig &config)
    : cfg(config), stream(&externalStream)
{
    cfg.validate();
    threadSeed(cfg);
    benchName = stream->identity();
    theCore = std::make_unique<Core>(*stream, cfg.core);
}

Simulator::Simulator(const std::string &benchmark, const SimConfig &config)
    : cfg(config), benchName(benchmark)
{
    cfg.validate();
    threadSeed(cfg);
    ownedStream = makeBenchmarkStream(benchmark, cfg.seed);
    stream = ownedStream.get();
    theCore = std::make_unique<Core>(*stream, cfg.core);
}

void
Simulator::rebuildCore()
{
    theCore = std::make_unique<Core>(*stream, cfg.core);
}

bool
Simulator::ckptActive() const
{
    return !cfg.ckpt.dir.empty() && cfg.skipInsts > 0 &&
           !stream->identity().empty();
}

bool
Simulator::tryRestoreCheckpoint(CkptScope scope)
{
    const std::uint64_t digest =
        warmStateDigest(cfg, benchName, stream->identity(), scope);
    const std::string path =
        checkpointPath(cfg.ckpt.dir, benchName, scope, digest);
    std::string raw;
    if (!readFileBytes(path, raw))
        return false;  // cache miss: core untouched, warm up cold
    try {
        if (guessFormat(raw) == FileFormat::Vprz)
            raw = vprzUnpack(raw, "ckpt");
        const std::string payload = unpackCheckpoint(raw, scope, digest);
        rebuildCore();
        StateLoader loader(payload);
        theCore->visitState(loader, scope);
        if (!loader.exhausted())
            throw CkptError("trailing bytes after checkpoint state");
        return true;
    } catch (const CkptError &e) {
        std::cerr << "vpr: warning: ignoring checkpoint " << path << ": "
                  << e.what() << "; warming up cold\n";
        // The failed load may have half-mutated the core and advanced
        // the stream; rebuild both before the cold fallback.
        stream->reset();
        rebuildCore();
        return false;
    }
}

void
Simulator::saveAndReloadCheckpoint(CkptScope scope)
{
    const std::uint64_t digest =
        warmStateDigest(cfg, benchName, stream->identity(), scope);
    StateSaver saver;
    theCore->visitState(saver, scope);
    const std::string raw = packCheckpoint(scope, digest, saver.take());
    if (cfg.ckpt.save) {
        const std::string path =
            checkpointPath(cfg.ckpt.dir, benchName, scope, digest);
        const std::string bytes =
            vprzPack(raw, "ckpt", cfg.ckpt.compress);
        if (!writeFileAtomic(path, bytes))
            std::cerr << "vpr: warning: cannot write checkpoint " << path
                      << "; continuing without saving\n";
    }
    // Measure from a constructed-then-loaded core even on the cold run,
    // so cold and restored measurements are byte-identical.
    const std::string payload = unpackCheckpoint(raw, scope, digest);
    rebuildCore();
    StateLoader loader(payload);
    theCore->visitState(loader, scope);
    VPR_ASSERT(loader.exhausted(), "checkpoint reload left bytes over");
}

SimResults
Simulator::run()
{
    if (cfg.sampling.enable)
        return runSampled();

    if (cfg.skipInsts > 0) {
        if (ckptActive()) {
            // Full-scope checkpoint: the detailed warm-up touches
            // everything, so the warm key covers the full provenance.
            if (!tryRestoreCheckpoint(CkptScope::Full)) {
                theCore->runUntilCommitted(cfg.skipInsts);
                theCore->drainForCheckpoint();
                saveAndReloadCheckpoint(CkptScope::Full);
            }
        } else {
            theCore->runUntilCommitted(cfg.skipInsts);
        }
    }
    // The checkpoint step may have replaced the core; bind after it.
    Core &c = *theCore;
    c.resetStats();
    std::uint64_t target = c.committedInsts() + cfg.measureInsts;
    c.runUntilCommitted(target);

    SimResults r;
    collectMetrics(r.metrics);
    return r;
}

SimResults
Simulator::runSampled()
{
    const SamplingConfig &sp = cfg.sampling;
    // Per validate(): detailedInsts >= 1, warmup+detailed <= period,
    // period <= measure, so ffInsts and nIntervals are well defined.
    const std::uint64_t ffInsts =
        sp.periodInsts - sp.warmupInsts - sp.detailedInsts;
    const std::uint64_t nIntervals = cfg.measureInsts / sp.periodInsts;

    // The initial skip goes through the same functional-warming path as
    // the inter-interval fast-forwards — that is the whole point of
    // sampling: the paper's 100M-skip warm-up becomes nearly free.
    // Functional-scope checkpoint: the fast-forward only warms the
    // trace position, BHT and caches, so one cached checkpoint is
    // shared by every cell of a scheme x regfile-size sweep grid.
    if (cfg.skipInsts > 0) {
        if (ckptActive()) {
            if (!tryRestoreCheckpoint(CkptScope::Functional)) {
                theCore->fastForward(cfg.skipInsts, sp.functionalWarming);
                theCore->drainForCheckpoint();
                saveAndReloadCheckpoint(CkptScope::Functional);
            }
        } else {
            theCore->fastForward(cfg.skipInsts, sp.functionalWarming);
        }
    }
    // The checkpoint step may have replaced the core; bind after it.
    Core &c = *theCore;

    stats::SampleEstimator ipcSampled{
        "ipc.sampled", "sampled-IPC estimator over detailed intervals"};
    // Companion to the point estimator: the full shape of the
    // per-interval IPC observations, in milli-IPC so the integer
    // histogram keeps three decimals of resolution. An 8-wide core
    // cannot exceed IPC 8, so the range is exact.
    stats::Distribution ipcDist = stats::Distribution::evenBuckets(
        "ipc.sampled.dist", "per-interval IPC observations (milli-IPC)",
        0, 8000, 16);

    // One record, revisited in place every interval: the stats tree's
    // schema is fixed after construction, so walks after the first
    // overwrite values without rebuilding names — record construction
    // would otherwise dominate short sampled runs. Parallel arrays
    // accumulate the per-column aggregates; UInt metrics (counters,
    // histogram buckets) sum across intervals, Real metrics (rates,
    // ratios) take the unweighted mean — for core.ipc that mean of
    // interval IPCs *is* the SMARTS point estimator the
    // core.ipc.sampled.* stats quantify.
    SimResults r;
    MetricsRecord &rec = r.metrics;
    std::vector<std::uint64_t> usum;
    std::vector<double> rsum;
    std::uint64_t measured = 0;
    for (std::uint64_t i = 0; i < nIntervals; ++i) {
        if (ffInsts > 0)
            c.fastForward(ffInsts, sp.functionalWarming);
        if (sp.warmupInsts > 0)
            c.runUntilCommitted(c.committedInsts() + sp.warmupInsts);
        c.resetStats();
        c.runUntilCommitted(c.committedInsts() + sp.detailedInsts);

        c.visitStats(rec);
        if (nIntervals > 1) {
            const std::vector<Metric> &cols = rec.all();
            if (measured == 0) {
                usum.assign(cols.size(), 0);
                rsum.assign(cols.size(), 0.0);
            }
            VPR_ASSERT(cols.size() == usum.size(),
                       "interval metric schema changed mid-run");
            for (std::size_t k = 0; k < cols.size(); ++k) {
                if (cols[k].kind == Metric::Kind::UInt)
                    usum[k] += cols[k].uval;
                else
                    rsum[k] += cols[k].rval;
            }
        }
        const double ipc = rec.real("core.ipc");
        ipcSampled.sample(ipc);
        ipcDist.sample(static_cast<std::uint64_t>(ipc * 1000.0 + 0.5));
        ++measured;
        if (c.done())
            break;
    }
    VPR_ASSERT(measured > 0, "sampled run measured zero intervals");

    // Fold the accumulated aggregates back into the record. A run that
    // measured a single interval is already its own aggregate (sum and
    // mean of one sample), so the record stands as visited.
    if (measured > 1) {
        for (std::size_t k = 0; k < rec.all().size(); ++k) {
            const Metric &m = rec.all()[k];
            if (m.kind == Metric::Kind::UInt)
                rec.setUInt(m.nameSym, m.descSym, usum[k]);
            else
                rec.setReal(m.nameSym, m.descSym,
                            rsum[k] / static_cast<double>(measured));
        }
    }

    // Append the estimator through the same group/visit machinery as
    // every other stat so it lands as core.ipc.sampled.* in the schema.
    stats::StatGroup sampledGroup{"core"};
    sampledGroup.add(&ipcSampled);
    sampledGroup.add(&ipcDist);
    sampledGroup.visit(rec);
    return r;
}

void
Simulator::collectMetrics(MetricsRecord &m)
{
    // The record is one walk of the core's stats tree: every component
    // and stage owns its StatGroup, so a stat added anywhere appears
    // here (and in every exporter downstream) with no glue.
    theCore->visitStats(m);
}

void
Simulator::printReport(std::ostream &os, const SimResults &r) const
{
    os << "scheme            " << renameSchemeName(cfg.core.scheme)
       << "\n";
    os << "physRegs/file     " << cfg.core.rename.numPhysRegs << "\n";
    os << "NRR (int/fp)      " << cfg.core.rename.nrrInt << "/"
       << cfg.core.rename.nrrFp << "\n";
    if (r.metrics.has("core.ipc.sampled.mean")) {
        os << "sampled ipc       " << std::fixed << std::setprecision(4)
           << r.metrics.real("core.ipc.sampled.mean") << " +/- "
           << r.metrics.real("core.ipc.sampled.ci95")
           << std::defaultfloat << "  (95% CI over "
           << r.metrics.counter("core.ipc.sampled.intervals")
           << " intervals)\n";
    }
    // The record is self-describing: one line per metric. Histogram
    // buckets are elided — the moments summarize each distribution and
    // the full shape travels in the --out record files.
    for (const Metric &m : r.metrics.all()) {
        if (m.name().find(".hist[") != std::string::npos)
            continue;
        os << std::left << std::setw(32) << m.name() << " "
           << std::right << std::setw(14);
        if (m.kind == Metric::Kind::UInt)
            os << m.uval;
        else
            os << std::fixed << std::setprecision(4) << m.rval
               << std::defaultfloat;
        os << "  # " << m.desc() << "\n";
    }
}

} // namespace vpr
