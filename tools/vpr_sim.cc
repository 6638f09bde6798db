/**
 * @file
 * vpr_sim — the command-line driver: single runs, declarative sweeps
 * and the paper's figures.
 *
 * Usage:
 *   vpr_sim [options] <benchmark | all | figure>
 *
 * The target "all" runs every built-in benchmark through the parallel
 * experiment engine and prints an IPC summary table (use --jobs). A
 * figure target runs one of the paper's registered tables, figures or
 * ablations (bench/figures/; `vpr_sim --list` names them) and prints
 * its table, e.g.
 *
 *   vpr_sim table2_ipc --jobs=4
 *
 * A figure's grid is built from the figures' base config
 * (bench::experimentConfig: 20 k warm-up + 120 k measured
 * instructions); benchmark, "all" and --sweep targets start from
 * driverConfig() (20 k + 200 k), which the vpr_simd daemon shares. The
 * flags below override either base, and the result is the base the
 * figure's grid is built from; the axes a figure sweeps itself win.
 *
 * Every configuration parameter of the simulated machine is set by
 * stable dotted name, and only so (run `vpr_sim --help-params` for the
 * generated reference, also checked in as docs/params.txt):
 *
 *   --set <key>=<value>   override one parameter (repeatable)
 *   --config=<file.json>  load a --dump-config dump first
 *   --dump-config         print the effective base config as JSON and
 *                         exit
 *   --help-params         print the parameter reference and exit
 *
 * Declarative sweeps replace bespoke experiment binaries: each --sweep
 * adds one axis, and the cross product (benchmarks outermost, then the
 * axes left to right, rightmost fastest) runs through the parallel
 * grid engine, e.g.
 *
 *   vpr_sim --sweep core.rename.regfile_size=48,64,96 \
 *           --sweep core.scheme=conv,vp-wb all
 *
 *   --sweep <key>=<v1,v2,...>  add one sweep axis (repeatable)
 *   --figure=<name>   label for a sweep's or run's exported records
 *                     (merge_results re-renders and provenance-checks
 *                     registered names; a figure target is labelled
 *                     with its own name)
 *
 * Figure targets and sweeps also run in slices:
 *
 *   --shard=i/N       run only slice i of N (cells dealt round-robin);
 *                     tools/merge_results merges the slices' --out
 *                     files and re-renders the table byte for byte
 *
 * Run control: --jobs=<n> (worker threads; else VPR_JOBS, else 1;
 * 0 = one per hardware thread; output is byte-identical for every
 * value), --result-cache=<dir> (the content-addressed per-cell result
 * cache shared with the vpr_simd daemon, see README "Sweep service";
 * records are byte-identical with or without it), --out=<path> (one
 * record per run cell; CSV, .json, or compressed .vprz — a shard must
 * not be .json; an unwritable path is refused before any cell runs),
 * --list. VPR_INSTS_SCALE=<f> scales every instruction budget.
 * --sampling is a shorthand for --set sim.sampling.enable=1
 * (SMARTS-style sampled simulation), and --sampling-preset=<figure>
 * applies that figure's tuned sim.sampling.* protocol.
 *
 * Every target runs through the grid engine — a single benchmark as a
 * one-cell grid — so VPR_INSTS_SCALE and --result-cache apply to all
 * of them.
 */

#include <algorithm>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "figures.hh"
#include "sim/experiment.hh"
#include "sim/params.hh"
#include "sim/results_io.hh"
#include "sim/sweep.hh"
#include "trace/kernels/kernels.hh"

using namespace vpr;

namespace
{

constexpr const char *kUsage =
    "usage: vpr_sim [options] <benchmark | all | figure> "
    "(--list names the targets, --help-params the parameters)";

/** Print the per-cell summary of an unsharded sweep: benchmark, the
 *  swept values, and IPC, in cell order. */
void
printSweepTable(std::ostream &os, const std::vector<SweepAxis> &axes,
                const std::vector<GridCell> &cells,
                const std::vector<SimResults> &results)
{
    std::vector<std::size_t> widths;
    os << std::left << std::setw(6) << "cell" << std::setw(12)
       << "benchmark";
    for (const SweepAxis &axis : axes) {
        std::size_t w = axis.key.size();
        for (const std::string &v : axis.values)
            w = std::max(w, v.size());
        widths.push_back(w + 2);
        os << std::setw(static_cast<int>(w + 2)) << axis.key;
    }
    os << "ipc\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        os << std::left << std::setw(6) << i << std::setw(12)
           << cells[i].benchmark;
        SimConfig config = cells[i].config;
        ConfigRegistry registry(config);
        for (std::size_t a = 0; a < axes.size(); ++a)
            os << std::setw(static_cast<int>(widths[a]))
               << registry.get(axes[a].key);
        os << std::fixed << std::setprecision(3) << results[i].ipc()
           << "\n";
        os.unsetf(std::ios::fixed);
    }
}

int
simMain(int argc, char **argv)
{
    std::string target;
    std::string outPath;
    std::string cacheDir;
    std::string figure;
    std::vector<SweepAxis> axes;
    ShardSpec shard;
    std::optional<unsigned> jobsFlag;
    ConfigCliArgs cli;

    for (int i = 1; i < argc; ++i) {
        const char *v = nullptr;
        if (std::strcmp(argv[i], "--list") == 0) {
            for (const auto &info : benchmarkTable())
                std::cout << info.name << (info.isFp ? "  [fp] " : " [int] ")
                          << info.sketch << "\n";
            for (const bench::FigureDef &def : bench::allFigures())
                std::cout << def.name << " [figure]\n";
            return 0;
        } else if (std::strcmp(argv[i], "--help") == 0) {
            std::cout << kUsage << "\n";
            return 0;
        } else if (std::strcmp(argv[i], "--help-params") == 0) {
            printParamHelp(std::cout);
            return 0;
        } else if (parseConfigArg(argc, argv, i, cli)) {
            // --set / --config= / --dump-config / --sampling taken.
        } else if (matchArg(argv[i], "--sampling-preset", &v)) {
            for (const std::string &a : bench::samplingPresetAssignments(v))
                cli.assignments.push_back(a);
        } else if (matchArg(argv[i], "--sweep", &v)) {
            axes.push_back(parseSweepAxis(v));
        } else if (std::strcmp(argv[i], "--sweep") == 0 && i + 1 < argc) {
            axes.push_back(parseSweepAxis(argv[++i]));
        } else if (matchArg(argv[i], "--figure", &v)) {
            figure = v;
        } else if (matchArg(argv[i], "--shard", &v)) {
            shard = parseShard(v);
        } else if (matchArg(argv[i], "--out", &v)) {
            outPath = v;
        } else if (matchArg(argv[i], "--jobs", &v)) {
            jobsFlag = parseJobs(v, "--jobs");
        } else if (matchArg(argv[i], "--result-cache", &v)) {
            cacheDir = parseCacheDir(v);
        } else if (argv[i][0] == '-') {
            VPR_FATAL("unrecognized argument '", argv[i], "'; ", kUsage);
        } else {
            target = argv[i];
        }
    }

    // A figure target builds its grid over the figures' base config,
    // every other target over driverConfig(); the config flags apply
    // to either.
    const bench::FigureDef *def = bench::findFigure(target);
    if (def && !axes.empty())
        VPR_FATAL("--sweep does not apply to figure target '", target,
                  "' (the figure builds its own grid)");
    if (def && !figure.empty())
        VPR_FATAL("--figure does not apply to figure target '", target,
                  "' (its records are labelled '", target, "')");
    SimConfig config = def ? bench::experimentConfig() : driverConfig();
    applyConfigCli(config, cli);
    if (cli.dumpConfig) {
        dumpConfig(std::cout, config);
        return 0;
    }
    if (target.empty())
        VPR_FATAL("no target; ", kUsage);
    const std::vector<std::string> benchmarks = benchmarkNames();
    if (!def && target != "all" &&
        std::find(benchmarks.begin(), benchmarks.end(), target) ==
            benchmarks.end())
        VPR_FATAL("unknown target '", target,
                  "' (want a benchmark, all or a figure; --list names "
                  "them)");

    // Process-level inputs are checked before anything runs.
    const unsigned jobs = jobsFlag ? *jobsFlag : defaultJobs();
    instructionScale();

    const bool grid = def || !axes.empty();
    if (shard.active() && !grid)
        VPR_FATAL("--shard only applies to figure targets and --sweep "
                  "runs");
    std::string label = figure;
    if (def)
        label = def->name;
    else if (label.empty())
        label = !axes.empty()    ? "vpr_sim-sweep"
                : target == "all" ? "vpr_sim-all"
                                  : "vpr_sim";
    checkResultsOutput(outPath, label, shard);

    if (grid) {
        // A figure's grid, or a declarative sweep's cross product of
        // benchmarks x axes: run the --shard slice, export it, and
        // render the table when the whole grid ran.
        std::vector<GridCell> cells;
        if (def) {
            cells = def->build(config);
        } else {
            cells = buildSweepGrid(target == "all"
                                       ? benchmarks
                                       : std::vector<std::string>{target},
                                   config, axes);
        }
        const std::vector<std::size_t> indices =
            shardCellIndices(cells.size(), shard);
        const std::vector<GridCell> selected =
            selectCells(cells, indices);
        const std::vector<SimResults> results =
            runGrid(selected, jobs, cacheDir);
        if (!outPath.empty())
            writeResultsFile(outPath, label, shard, indices, cells,
                             results);

        if (shard.active()) {
            // A shard holds only part of the grid; the table comes from
            // merging every shard's records (merge_results --render).
            std::cout << "shard " << shard.index << "/" << shard.count
                      << ": ran " << selected.size() << " of "
                      << cells.size() << " grid cells";
            if (!outPath.empty())
                std::cout << "; records written to " << outPath;
            else
                std::cout << " (no --out; records discarded)";
            std::cout << "\n";
        } else if (def) {
            def->render(cells, results, std::cout);
        } else {
            printSweepTable(std::cout, axes, cells, results);
        }
        return 0;
    }

    if (target == "all") {
        // Sweep every benchmark on the parallel engine and summarize.
        std::vector<GridCell> cells;
        for (const auto &name : benchmarks)
            cells.push_back({name, config});
        std::vector<SimResults> results = runGrid(cells, jobs, cacheDir);
        if (!outPath.empty())
            exportAllCells(outPath, label, cells, results);

        printTableHeader(std::cout,
                         std::string("IPC, scheme=") +
                             renameSchemeName(config.core.scheme),
                         {"ipc", "exec/ci", "missrate"});
        std::vector<double> ipcs;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const SimResults &r = results[i];
            ipcs.push_back(r.ipc());
            printTableRow(std::cout, cells[i].benchmark,
                          {r.ipc(), r.executionsPerCommit(),
                           r.cacheMissRate()},
                          3);
        }
        std::cout << std::string(48, '-') << "\n";
        printTableRow(std::cout, "hmean", {harmonicMean(ipcs)}, 3);
        return 0;
    }

    const GridCell cell{target, config};
    const SimResults r = runGrid({cell}, jobs, cacheDir).front();
    printReport(std::cout, cell.config, r);
    if (!outPath.empty())
        exportAllCells(outPath, label, {cell}, {r});
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain([&] { return simMain(argc, argv); });
}
