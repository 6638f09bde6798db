#include "bench_common.hh"

#include <cmath>

#include "common/logging.hh"

namespace vpr::bench
{

namespace
{

ConfigCliArgs &
overrideStore()
{
    static ConfigCliArgs overrides;
    return overrides;
}

} // namespace

const std::vector<SamplingPreset> &
samplingPresets()
{
    // One entry per registered figure (bench/figures/registry.cc); the
    // coverage test keeps this list and the registry in lockstep and
    // checks every figure's real cells against its row. Coarse periods
    // for the wide NRR grids, finer ones where a single table's
    // accuracy is the whole point; the §3.1 chain measures only 4,000
    // instructions per cell.
    static const std::vector<SamplingPreset> presets = {
        {"table2_ipc", 10000, 150, 500},
        {"fig4_nrr_writeback", 24000, 150, 250},
        {"fig5_nrr_issue", 24000, 150, 250},
        {"fig6_wb_vs_issue", 20000, 150, 250},
        {"fig7_regfile_size", 20000, 150, 250},
        {"ablation_early_release", 30000, 150, 250},
        {"ablation_mshr", 30000, 150, 250},
        {"ablation_window", 30000, 150, 250},
        {"ablation_wrongpath", 30000, 150, 250},
        {"motivating_example", 1000, 150, 250},
        {"regpressure", 15000, 150, 400},
    };
    return presets;
}

const SamplingPreset *
findSamplingPreset(const std::string &figure)
{
    for (const SamplingPreset &preset : samplingPresets())
        if (figure == preset.figure)
            return &preset;
    return nullptr;
}

std::vector<std::string>
samplingPresetAssignments(const std::string &figure)
{
    const SamplingPreset *preset = findSamplingPreset(figure);
    if (!preset) {
        std::string known;
        for (const SamplingPreset &p : samplingPresets())
            known += std::string(known.empty() ? "" : ", ") + p.figure;
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

void
setConfigOverrides(const ConfigCliArgs &overrides)
{
    overrideStore() = overrides;
}

SimConfig
experimentConfig()
{
    SimConfig config = driverConfig();
    // The paper skips 100 M instructions and measures 50 M per run; the
    // figures keep driverConfig's 20 k warm-up and measure 120 k, which
    // keeps the full figure suite under a few minutes while preserving
    // every qualitative result. Use VPR_INSTS_SCALE=10 (or more) for
    // higher-fidelity runs.
    config.measureInsts = 120000;
    // User overrides, by dotted parameter name: --config first, then
    // --set in command-line order.
    applyConfigCli(config, overrideStore());
    return config;
}

double
geoMean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double s = 0.0;
    for (double v : values)
        s += std::log(v);
    return std::exp(s / static_cast<double>(values.size()));
}

} // namespace vpr::bench
