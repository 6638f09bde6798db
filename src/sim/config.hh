/**
 * @file
 * Simulation-level configuration: the core configuration plus run
 * control (benchmark selection, warm-up, instruction budget).
 */

#ifndef VPR_SIM_CONFIG_HH
#define VPR_SIM_CONFIG_HH

#include <cstdint>

#include "core/core.hh"

namespace vpr
{

class ParamVisitor;

/**
 * SMARTS-style statistical sampling (sim.sampling.*). When enabled,
 * the measurement budget is split into periods of @ref periodInsts
 * instructions; each period fast-forwards through a functional-warming
 * phase, runs @ref warmupInsts detailed-but-unmeasured instructions to
 * re-warm the short-lived pipeline state, then measures
 * @ref detailedInsts instructions. The per-interval IPC observations
 * feed the core.ipc.sampled.{mean,stderr,ci95,intervals} estimator.
 */
struct SamplingConfig
{
    /** Master switch; off by default so full runs are unchanged. */
    bool enable = false;

    /** Instructions per sampling period (fast-forward + warm-up +
     *  detailed). measure_insts / period_insts = interval count. */
    std::uint64_t periodInsts = 20000;

    /** Detailed-but-unmeasured instructions before each measurement.
     *  With functional warming on, the only state fast-forward cannot
     *  restore is pipeline occupancy, so the default just covers
     *  refilling the 128-entry ROB with some slack. */
    std::uint64_t warmupInsts = 150;

    /** Measured detailed instructions per period. */
    std::uint64_t detailedInsts = 250;

    /** Functional warming during fast-forward: caches and the BHT
     *  observe every skipped access. Disabling reduces fast-forward to
     *  a bare trace skip (cold-state sampling; cheaper, biased). */
    bool functionalWarming = true;

    /** Reflect the sampling parameters (sim/params.hh). */
    void visitParams(ParamVisitor &v);
};

/** Everything a single simulation run needs. */
struct SimConfig
{
    CoreConfig core;

    /** Statistical-sampling protocol (sim.sampling.*). */
    SamplingConfig sampling;

    /** Committed instructions to skip before measuring (cache/BHT
     *  warm-up; the paper skips 100 M then measures 50 M — we scale both
     *  down, see README "Reproduce the paper"). */
    std::uint64_t skipInsts = 40000;

    /** Committed instructions to measure. */
    std::uint64_t measureInsts = 400000;

    /**
     * Workload seed (0 = the kernel's default). A non-zero seed feeds
     * the benchmark kernel stream directly and every other stochastic
     * component through common/random's deriveSeed with a per-component
     * salt (currently the wrong-path synthesis RNG; see
     * threadSeed in simulator.cc), so a (benchmark, config, seed) triple is
     * reproducible bit-for-bit — also when many grid cells run
     * concurrently.
     */
    std::uint64_t seed = 0;

    /**
     * Convenience: apply the paper's relationship between register-file
     * size and the other renaming parameters — sets numPhysRegs, sizes
     * the VP pool to NLR + window, and sets NRR to its maximum
     * (NPR - NLR) unless @p nrr is given.
     */
    void setPhysRegs(std::uint16_t numPhysRegs, int nrr = -1);

    /** Set both NRR values (int and FP use the same value, as in the
     *  paper's experiments). */
    void setNrr(std::uint16_t nrr);

    /** Set the rename scheme. */
    void setScheme(RenameScheme scheme);

    /** Check every per-key range and cross-parameter constraint a core
     *  needs to build and make progress; throws Error naming the first
     *  offending key. */
    void validate() const;

    /**
     * Reflect the whole config tree — run control, the core, and every
     * nested struct — as dotted-name parameters (sim/params.hh), plus
     * the derived convenience parameters (core.rename.regfile_size,
     * core.rename.nrr, core.window) that apply the setPhysRegs /
     * setNrr / window sizing rules above.
     */
    void visitParams(ParamVisitor &v);
};

/** A SimConfig preloaded with the paper's section 4.1 machine. */
SimConfig paperConfig();

/**
 * paperConfig() with 20 k warm-up and 200 k measured instructions, and
 * fetch stalled on a detected misprediction. The base config of
 * vpr_sim's benchmark, "all" and --sweep targets and of the vpr_simd
 * daemon, so a daemon request reproduces a vpr_sim command line field
 * for field; bench::experimentConfig() derives the paper figures' base
 * from it with measureInsts = 120000, so a change here moves every
 * figure's records too.
 */
SimConfig driverConfig();

} // namespace vpr

#endif // VPR_SIM_CONFIG_HH
