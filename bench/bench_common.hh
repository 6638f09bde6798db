/**
 * @file
 * What the paper figures share: the base config every figure grid is
 * built from.
 *
 * Every figure is a vpr_sim target (`vpr_sim fig7_regfile_size`).
 * Instruction budgets are scaled down from the paper's 50 M (see README
 * "Reproduce the paper") and rescaled with VPR_INSTS_SCALE=<factor>.
 * Any configuration parameter can be overridden by dotted name with
 * --set <key>=<value> / --config=<file.json> (see sim/params.hh and
 * vpr_sim --help-params): vpr_sim and merge_results apply those flags
 * to experimentConfig() and hand the result to FigureDef::build as the
 * figure's base, and the axes a figure itself sweeps win.
 */

#ifndef VPR_BENCH_BENCH_COMMON_HH
#define VPR_BENCH_BENCH_COMMON_HH

#include <vector>

#include "sim/experiment.hh"
#include "trace/kernels/kernels.hh"

namespace vpr::bench
{

/** The SimConfig all paper experiments start from: section 4.1 machine,
 *  trace-driven fetch stall on mispredictions, scaled-down budget. */
SimConfig experimentConfig();

/** Geometric-mean helper used when summarizing speedup figures. */
double geoMean(const std::vector<double> &values);

} // namespace vpr::bench

#endif // VPR_BENCH_BENCH_COMMON_HH
