/**
 * @file
 * What the paper figures share: the base config every figure grid is
 * built from, the override store applied to it, and the tuned sampling
 * presets.
 *
 * Every figure is a vpr_sim target (`vpr_sim fig7_regfile_size`).
 * Instruction budgets are scaled down from the paper's 50 M (see README
 * "Reproduce the paper") and rescaled with VPR_INSTS_SCALE=<factor>.
 * Any configuration parameter can be overridden by dotted name with
 * --set <key>=<value> / --config=<file.json> (see sim/params.hh and
 * vpr_sim --help-params); vpr_sim and merge_results put those overrides
 * in the store experimentConfig() applies, so they reach the base
 * config every figure grid is built from, and the axes a figure itself
 * sweeps win.
 */

#ifndef VPR_BENCH_BENCH_COMMON_HH
#define VPR_BENCH_BENCH_COMMON_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/params.hh"
#include "trace/kernels/kernels.hh"

namespace vpr::bench
{

/**
 * Tuned SMARTS sampling protocol for one registered figure: the
 * sim.sampling.* values --sampling-preset=<figure> applies. Periods are
 * matched to the figure's measurement budget and grid size — wide grids
 * (fig4/fig5's seven NRR points per benchmark) take coarser periods,
 * single-table figures finer ones — keeping every preset's interval
 * count high enough for a meaningful ci95.
 */
struct SamplingPreset
{
    const char *figure;         ///< registered figure name
    std::uint64_t periodInsts;  ///< sim.sampling.period_insts
    std::uint64_t warmupInsts;  ///< sim.sampling.warmup_insts
    std::uint64_t detailedInsts;///< sim.sampling.detailed_insts
};

/** The full preset table — one entry per registered figure (a coverage
 *  test enforces the bijection against the figure registry). */
const std::vector<SamplingPreset> &samplingPresets();

/** Preset lookup by figure name; nullptr when unknown. */
const SamplingPreset *findSamplingPreset(const std::string &figure);

/** What --sampling-preset=<figure> means: sim.sampling.enable=1, then
 *  the preset's period, warm-up and detailed lengths, as "key=value"
 *  assignments. Throws Error naming @p figure when it has no preset. */
std::vector<std::string>
samplingPresetAssignments(const std::string &figure);

/** Replace the override store experimentConfig() applies last, with
 *  the shared applyConfigCli contract (--config file first, then the
 *  assignments in order). */
void setConfigOverrides(const ConfigCliArgs &overrides);

/** The SimConfig all paper experiments start from: section 4.1 machine,
 *  trace-driven fetch stall on mispredictions, scaled-down budget, with
 *  the override store applied last. */
SimConfig experimentConfig();

/** Geometric-mean helper used when summarizing speedup figures. */
double geoMean(const std::vector<double> &values);

} // namespace vpr::bench

#endif // VPR_BENCH_BENCH_COMMON_HH
