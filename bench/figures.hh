/**
 * @file
 * The figure registry: every paper table/figure/ablation as a
 * (deterministic grid, renderer, sampling preset) triple.
 *
 * A FigureDef separates *what to simulate* (build(), a pure function
 * of the base config returning the grid cells in a fixed order) from
 * *how to present it* (render(), a pure function of the cell-ordered
 * results). That split is what makes sharding safe: any subset of
 * cells can run anywhere, the records travel as CSV, and
 * tools/merge_results re-renders the table from the merged records
 * byte-identically to an unsharded run — both paths build the grid
 * from the same base and go through the same render().
 */

#ifndef VPR_BENCH_FIGURES_HH
#define VPR_BENCH_FIGURES_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "bench_common.hh"

namespace vpr::bench
{

/**
 * Tuned SMARTS sampling protocol of one figure: the sim.sampling.*
 * values --sampling-preset=<figure> applies. Periods are matched to the
 * figure's measurement budget and grid size — wide grids (fig4/fig5's
 * seven cells per benchmark) take coarser periods, single-table
 * figures finer ones — keeping every preset's interval count high
 * enough for a meaningful ci95.
 */
struct SamplingPreset
{
    std::uint64_t periodInsts;   ///< sim.sampling.period_insts
    std::uint64_t warmupInsts;   ///< sim.sampling.warmup_insts
    std::uint64_t detailedInsts; ///< sim.sampling.detailed_insts
};

/** One registered figure. */
struct FigureDef
{
    /** Stable id: the vpr_sim target name and the records' label. */
    std::string name;
    /** The full grid over a base config (pure; identical on every
     *  host). The figure's own axes overwrite the base's values. */
    std::function<std::vector<GridCell>(const SimConfig &base)> grid;
    /** Print the paper-style table(s) from cell-ordered results. */
    std::function<void(const std::vector<GridCell> &,
                       const std::vector<SimResults> &, std::ostream &)>
        render;
    /** The figure's --sampling-preset protocol. */
    SamplingPreset preset{};

    /** The figure's grid over @p base (vpr_sim and merge_results pass
     *  experimentConfig() with the command line's config flags). */
    std::vector<GridCell>
    build(const SimConfig &base = experimentConfig()) const
    {
        return grid(base);
    }
};

/** Every registered figure, in paper order. */
const std::vector<FigureDef> &allFigures();

/** Lookup by name; nullptr when unknown. */
const FigureDef *findFigure(const std::string &name);

/** The preset of figure @p figure; nullptr when no figure has that
 *  name. */
const SamplingPreset *findSamplingPreset(const std::string &figure);

/** What --sampling-preset=<figure> means: sim.sampling.enable=1, then
 *  the preset's period, warm-up and detailed lengths, as "key=value"
 *  assignments. Throws Error naming @p figure when it has no preset. */
std::vector<std::string>
samplingPresetAssignments(const std::string &figure);

/** Figure constructors, one per registered figure. @{ */
FigureDef fig4Figure();
FigureDef fig5Figure();
FigureDef fig6Figure();
FigureDef fig7Figure();
FigureDef table2Figure();
FigureDef ablationEarlyReleaseFigure();
FigureDef ablationMshrFigure();
FigureDef ablationWindowFigure();
FigureDef ablationWrongPathFigure();
FigureDef motivatingExampleFigure();
FigureDef regPressureFigure();
/** @} */

} // namespace vpr::bench

#endif // VPR_BENCH_FIGURES_HH
