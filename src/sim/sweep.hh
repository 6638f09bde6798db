/**
 * @file
 * Declarative sweep driver: turn "--sweep key=v1,v2,..." axes into the
 * cross-product GridCell list the parallel experiment engine runs.
 *
 * The grid order is fixed so a sweep reproduces the hand-rolled figure
 * grids cell for cell: benchmarks are the outermost axis, then the
 * sweep axes left to right with the rightmost varying fastest. E.g.
 *
 *   vpr_sim --sweep core.rename.regfile_size=48,64,96
 *           --sweep core.scheme=conv,vp-wb  all
 *
 * enumerates, per benchmark, (48,conv), (48,vp-wb), (64,conv), ... —
 * exactly the fig7_regfile_size grid.
 */

#ifndef VPR_SIM_SWEEP_HH
#define VPR_SIM_SWEEP_HH

#include <string>
#include <vector>

#include "sim/parallel_engine.hh"

namespace vpr
{

/** One sweep axis: a dotted parameter name and its value list. */
struct SweepAxis
{
    std::string key;
    std::vector<std::string> values;
};

/** Strictly parse a "key=v1,v2,..." axis spec; fatal()s on a missing
 *  key, missing '=', or an empty value. The key itself is validated
 *  (and each value parsed) when the grid is built. */
SweepAxis parseSweepAxis(const std::string &spec);

/**
 * Build the cross-product grid: for every benchmark (outermost), every
 * combination of axis values (rightmost axis fastest), copy @p base and
 * apply the axis assignments left to right through the config registry.
 * fatal()s on an unknown key, a bad value, or a grid that would not be
 * distinct cells: a benchmark named twice, a key on two axes, or a
 * value repeated within one axis (aliases count as their canonical
 * name).
 */
std::vector<GridCell>
buildSweepGrid(const std::vector<std::string> &benchmarks,
               const SimConfig &base, const std::vector<SweepAxis> &axes);

} // namespace vpr

#endif // VPR_SIM_SWEEP_HH
