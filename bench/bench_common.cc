#include "bench_common.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "sim/params.hh"

namespace vpr::bench
{

namespace
{

BenchOptions &
mutableOptions()
{
    static BenchOptions options;
    return options;
}

} // namespace

const BenchOptions &
benchOptions()
{
    return mutableOptions();
}

const std::vector<SamplingPreset> &
samplingPresets()
{
    // One entry per registered figure (bench/figures/registry.cc); the
    // coverage test keeps this list and the registry in lockstep.
    // Coarse periods for the wide NRR grids, finer ones where a single
    // table's accuracy is the whole point.
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
        {"motivating_example", 10000, 150, 500},
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

void
parseArgs(int argc, char **argv)
{
    // Strict: an unrecognized argument aborts instead of silently
    // running the full grid — a CI matrix with a mistyped --shard must
    // fail at launch, not at merge time after the compute was spent.
    BenchOptions &opt = mutableOptions();
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--scale=", 8) == 0) {
            setenv("VPR_INSTS_SCALE", argv[i] + 8, 1);
        } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
            setenv("VPR_JOBS", argv[i] + 7, 1);
        } else if (std::strncmp(argv[i], "--shard=", 8) == 0) {
            opt.shard = parseShard(argv[i] + 8);
        } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
            opt.outPath = argv[i] + 6;
        } else if (std::strcmp(argv[i], "--sampling") == 0) {
            opt.config.assignments.push_back("sim.sampling.enable=1");
        } else if (std::strncmp(argv[i], "--sampling-preset=", 18) == 0) {
            const SamplingPreset *preset =
                findSamplingPreset(argv[i] + 18);
            if (!preset) {
                std::fprintf(stderr,
                             "%s: unknown sampling preset '%s'; one of:\n",
                             argv[0], argv[i] + 18);
                for (const SamplingPreset &p : samplingPresets())
                    std::fprintf(stderr, "  %s\n", p.figure);
                std::exit(1);
            }
            opt.config.assignments.push_back("sim.sampling.enable=1");
            opt.config.assignments.push_back(
                "sim.sampling.period_insts=" +
                std::to_string(preset->periodInsts));
            opt.config.assignments.push_back(
                "sim.sampling.warmup_insts=" +
                std::to_string(preset->warmupInsts));
            opt.config.assignments.push_back(
                "sim.sampling.detailed_insts=" +
                std::to_string(preset->detailedInsts));
        } else if (std::strncmp(argv[i], "--result-cache=", 15) == 0) {
            opt.config.assignments.push_back(
                std::string("sim.result_cache.dir=") + (argv[i] + 15));
        } else if (parseConfigArg(argc, argv, i, opt.config)) {
            // --set / --set= / --config= / --dump-config taken.
        } else if (std::strcmp(argv[i], "--help") == 0) {
            std::printf(
                "usage: %s [--scale=<factor>] [--jobs=<n>] "
                "[--shard=i/N] [--out=<path>]\n"
                "          [--sampling] [--sampling-preset=<figure>]\n"
                "          [--result-cache=<dir>]\n"
                "          [--set <key>=<value>] [--config=<file.json>] "
                "[--dump-config]\n"
                "  --scale scales the simulated instruction budget "
                "(default 1.0;\n"
                "  also settable via VPR_INSTS_SCALE)\n"
                "  --jobs runs grid cells on <n> worker threads "
                "(default 1; 0 = one\n"
                "  per hardware thread; also settable via VPR_JOBS). "
                "Output is\n"
                "  byte-identical for every value of --jobs.\n"
                "  --shard runs only slice i of N (cells dealt "
                "round-robin); merge the\n"
                "  per-shard --out files with tools/merge_results to "
                "recover the full\n"
                "  table byte-for-byte.\n"
                "  --out writes one record per executed grid cell "
                "(CSV; JSON when the\n"
                "  path ends in .json, compressed container when it "
                "ends in .vprz —\n"
                "  merge_results ingests both).\n"
                "  --sampling switches every cell to SMARTS-style "
                "sampled simulation\n"
                "  (= --set sim.sampling.enable=1); --sampling-preset "
                "additionally\n"
                "  applies the sim.sampling.* protocol tuned for the "
                "named figure's\n"
                "  grid (one preset per registered figure).\n"
                "  --result-cache serves whole grid cells computed by "
                "any earlier run\n"
                "  from disk (= --set sim.result_cache.dir=<dir>; see "
                "README \"Sweep\n"
                "  service\").\n"
                "  --set overrides one config parameter by dotted name "
                "(repeatable;\n"
                "  run vpr_sim --help-params for the list). --config "
                "loads a\n"
                "  --dump-config dump first; --dump-config prints the "
                "effective base\n"
                "  config and exits. Overrides apply to the base "
                "config the figure\n"
                "  grid is built from; axes the figure itself sweeps "
                "win.\n",
                argv[0]);
            std::exit(0);
        } else {
            std::fprintf(stderr,
                         "%s: unrecognized argument '%s' (see --help; "
                         "flags take the --flag=value form)\n",
                         argv[0], argv[i]);
            std::exit(1);
        }
    }

    if (opt.config.dumpConfig) {
        dumpConfig(std::cout, experimentConfig());
        std::exit(0);
    }
}

void
addConfigOverride(const std::string &assignment)
{
    mutableOptions().config.assignments.push_back(assignment);
}

SimConfig
experimentConfig()
{
    SimConfig config = paperConfig();
    // The paper skips 100 M instructions and measures 50 M per run; we
    // default to 20 k + 120 k, which keeps the full figure suite under a
    // few minutes while preserving every qualitative result. Use
    // --scale=10 (or more) for higher-fidelity runs.
    config.skipInsts = 20000;
    config.measureInsts = 120000;
    // Trace-driven methodology: fetch stalls on a detected
    // misprediction, as in the paper's ATOM-based framework.
    config.core.fetch.wrongPath = WrongPathMode::Stall;
    config.jobs = defaultJobs();
    // User overrides, by dotted parameter name: --config first, then
    // --set in command-line order.
    applyConfigCli(config, benchOptions().config);
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
