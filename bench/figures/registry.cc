/**
 * @file
 * The figure registry: every figure vpr_sim can run as a target.
 */

#include "figures.hh"

#include "common/logging.hh"

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

const SamplingPreset *
findSamplingPreset(const std::string &figure)
{
    const FigureDef *def = findFigure(figure);
    return def ? &def->preset : nullptr;
}

std::vector<std::string>
samplingPresetAssignments(const std::string &figure)
{
    const SamplingPreset *preset = findSamplingPreset(figure);
    if (!preset) {
        std::string known;
        for (const FigureDef &def : allFigures())
            known += (known.empty() ? "" : ", ") + def.name;
        VPR_FATAL("unknown sampling preset '", figure, "' (one of: ",
                  known, ")");
    }
    return {"sim.sampling.enable=1",
            "sim.sampling.period_insts=" +
                std::to_string(preset->periodInsts),
            "sim.sampling.warmup_insts=" +
                std::to_string(preset->warmupInsts),
            "sim.sampling.detailed_insts=" +
                std::to_string(preset->detailedInsts)};
}

} // namespace vpr::bench
