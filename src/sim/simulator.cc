#include "sim/simulator.hh"

#include <iomanip>

#include "common/logging.hh"
#include "common/random.hh"
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

Simulator::Simulator(TraceStream &stream, const SimConfig &config)
    : cfg(config)
{
    cfg.validate();
    threadSeed(cfg);
    theCore = std::make_unique<Core>(stream, cfg.core);
}

Simulator::Simulator(const std::string &benchmark, const SimConfig &config)
    : cfg(config)
{
    cfg.validate();
    threadSeed(cfg);
    ownedStream = makeBenchmarkStream(benchmark, cfg.seed);
    theCore = std::make_unique<Core>(*ownedStream, cfg.core);
}

SimResults
Simulator::run()
{
    if (cfg.sampling.enable)
        return runSampled();

    Core &c = *theCore;
    if (cfg.skipInsts > 0)
        c.runUntilCommitted(cfg.skipInsts);
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
    Core &c = *theCore;
    if (cfg.skipInsts > 0)
        c.fastForward(cfg.skipInsts, sp.functionalWarming);

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
printReport(std::ostream &os, const SimConfig &config, const SimResults &r)
{
    const RenameConfig &rename = config.core.rename;
    os << "scheme            " << renameSchemeName(config.core.scheme)
       << "\n";
    os << "physRegs/file     " << rename.numPhysRegs << "\n";
    os << "NRR (int/fp)      " << rename.nrrInt << "/" << rename.nrrFp
       << "\n";
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
