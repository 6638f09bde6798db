/**
 * @file
 * The figure registry: every figure vpr_sim can run as a target.
 */

#include "figures.hh"

namespace vpr::bench
{

const std::vector<FigureDef> &
allFigures()
{
    // Explicit list (no static self-registration: these live in a
    // static library, where unreferenced registrars would be dropped).
    static const std::vector<FigureDef> figures = {
        table2Figure(),
        fig4Figure(),
        fig5Figure(),
        fig6Figure(),
        fig7Figure(),
        ablationEarlyReleaseFigure(),
        ablationMshrFigure(),
        ablationWindowFigure(),
        ablationWrongPathFigure(),
        motivatingExampleFigure(),
        regPressureFigure(),
    };
    return figures;
}

const FigureDef *
findFigure(const std::string &name)
{
    for (const FigureDef &def : allFigures())
        if (def.name == name)
            return &def;
    return nullptr;
}

} // namespace vpr::bench
