/**
 * @file
 * Simulator: owns a trace stream and a core, runs the warm-up /
 * measurement protocol, and reports results.
 */

#ifndef VPR_SIM_SIMULATOR_HH
#define VPR_SIM_SIMULATOR_HH

#include <memory>
#include <ostream>
#include <string>

#include "sim/config.hh"
#include "sim/metrics.hh"
#include "trace/stream.hh"

namespace vpr
{

/**
 * Results of one measured simulation interval: a self-describing
 * MetricsRecord keyed by stable metric names, produced by visiting the
 * core's stat groups. The named accessors below are conveniences over
 * the record; exporters iterate metrics.all() and need no per-field
 * knowledge.
 */
struct SimResults
{
    MetricsRecord metrics;

    /** Convenience lookups over the record. @{ */
    double ipc() const { return metrics.real("core.ipc"); }
    std::uint64_t cycles() const { return metrics.counter("core.cycles"); }

    std::uint64_t
    committed() const
    {
        return metrics.counter("commit.committed");
    }

    std::uint64_t issued() const { return metrics.counter("issue.issued"); }

    std::uint64_t
    squashed() const
    {
        return metrics.counter("core.squashed");
    }

    std::uint64_t
    mispredicts() const
    {
        return metrics.counter("fetch.mispredicts");
    }

    std::uint64_t
    wbRejections() const
    {
        return metrics.counter("complete.wb_rejections");
    }

    std::uint64_t
    renameStallReg() const
    {
        return metrics.counter("rename.stall_reg");
    }

    double
    executionsPerCommit() const
    {
        return metrics.real("core.exec_per_commit");
    }

    double
    cacheMissRate() const
    {
        return metrics.real("memory.cache_miss_rate");
    }

    double bhtAccuracy() const { return metrics.real("branch.bht_accuracy"); }

    double
    meanHoldCyclesInt() const
    {
        return metrics.real("rename.mean_hold_cycles_int");
    }

    double
    meanHoldCyclesFp() const
    {
        return metrics.real("rename.mean_hold_cycles_fp");
    }

    double
    robOccupancyMean() const
    {
        return metrics.real("rob.occupancy.mean");
    }
    /** @} */
};

/** One simulation run: stream + core + measurement protocol. */
class Simulator
{
  public:
    /** Build with an externally owned stream. */
    Simulator(TraceStream &stream, const SimConfig &config);

    /** Build by benchmark name (owns the stream). */
    Simulator(const std::string &benchmark, const SimConfig &config);

    /**
     * Run the measurement protocol and return stats. With sampling off
     * (the default): warm up for skipInsts, measure for measureInsts
     * contiguously. With sim.sampling.enable: fast-forward through
     * skipInsts, then alternate fast-forward / detailed warm-up /
     * measured intervals per the sim.sampling.* geometry; the returned
     * record aggregates the intervals and appends the
     * core.ipc.sampled.{mean,stderr,ci95,intervals} estimator.
     */
    SimResults run();

    Core &core() { return *theCore; }
    const Core &core() const { return *theCore; }

  private:
    /** The sampled phase machine behind run(). */
    SimResults runSampled();

    /** Build the result record by walking the core's stats tree. */
    void collectMetrics(MetricsRecord &m);

    SimConfig cfg;
    std::unique_ptr<TraceStream> ownedStream;
    std::unique_ptr<Core> theCore;
};

/** Print a human-readable report of one run of @p config. */
void printReport(std::ostream &os, const SimConfig &config,
                 const SimResults &r);

} // namespace vpr

#endif // VPR_SIM_SIMULATOR_HH
