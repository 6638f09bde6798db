/**
 * @file
 * The figure registry: every paper table/figure/ablation as a
 * (deterministic grid, renderer) pair.
 *
 * A FigureDef separates *what to simulate* (build(), a pure function
 * returning the grid cells in a fixed order) from *how to present it*
 * (render(), a pure function of the cell-ordered results). That split
 * is what makes sharding safe: any subset of cells can run anywhere,
 * the records travel as CSV, and tools/merge_results re-renders the
 * table from the merged records byte-identically to an unsharded run —
 * both paths go through the same render().
 */

#ifndef VPR_BENCH_FIGURES_HH
#define VPR_BENCH_FIGURES_HH

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "bench_common.hh"

namespace vpr::bench
{

/** One registered figure. */
struct FigureDef
{
    /** Stable id: the vpr_sim target name and the records' label. */
    std::string name;
    /** Build the full grid (pure; identical on every host). */
    std::function<std::vector<GridCell>()> build;
    /** Print the paper-style table(s) from cell-ordered results. */
    std::function<void(const std::vector<GridCell> &,
                       const std::vector<SimResults> &, std::ostream &)>
        render;
};

/** Every registered figure, in paper order. */
const std::vector<FigureDef> &allFigures();

/** Lookup by name; nullptr when unknown. */
const FigureDef *findFigure(const std::string &name);

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
