/**
 * @file
 * vpr_sim — command-line driver for single runs and declarative sweeps.
 *
 * Usage:
 *   vpr_sim [options] <benchmark | trace.vprt | all>
 *
 * The target "all" runs every built-in benchmark through the parallel
 * experiment engine and prints an IPC summary table (use --jobs).
 *
 * Every configuration parameter of the simulated machine is settable
 * by stable dotted name (run `vpr_sim --help-params` for the generated
 * reference, also checked in as docs/params.txt):
 *
 *   --set <key>=<value>   override one parameter (repeatable)
 *   --config=<file.json>  load a --dump-config dump first
 *   --dump-config         print the effective config as JSON and exit
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
 * reproduces the fig7_regfile_size grid cell for cell.
 *
 *   --sweep <key>=<v1,v2,...>  add one sweep axis (repeatable)
 *   --figure=<name>   label for exported records (merge_results
 *                     re-renders and provenance-checks registered names)
 *   --shard=i/N       run only slice i of the sweep grid (see README)
 *
 * Run control: --skip/--insts/--seed/--jobs, --out=<path> (one record
 * per run; CSV, .json, or compressed .vprz), --dump-trace=F,N, --list.
 * The classic flags --scheme/--regs/--nrr/--rob/--miss/--mshrs/
 * --wrongpath[-mem] and --sampling (= sim.sampling.enable=1,
 * SMARTS-style sampled simulation) are thin aliases onto the dotted
 * parameters above, as is --result-cache=<dir> (= sim.result_cache.dir,
 * the content-addressed per-cell result cache shared with the vpr_simd
 * daemon; see README "Sweep service").
 *
 * Every target runs through the grid engine — a single benchmark or
 * trace as a one-cell grid — so VPR_INSTS_SCALE applies to all of them
 * and --result-cache to every benchmark target (a trace file's content
 * is not part of the cache key, so trace runs are never cached).
 */

#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "sim/experiment.hh"
#include "sim/params.hh"
#include "sim/results_io.hh"
#include "sim/sweep.hh"
#include "trace/kernels/kernels.hh"
#include "trace/trace_file.hh"

using namespace vpr;

namespace
{

[[noreturn]] void
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0
              << " [options] <benchmark | trace.vprt | all>\n"
                 "run '" << argv0 << " --list' for benchmarks, '"
              << argv0 << " --help-params' for every settable\n"
                 "parameter; see the file header for all options\n";
    std::exit(1);
}

bool
matchArg(const char *arg, const char *key, const char **value)
{
    std::size_t n = std::strlen(key);
    if (std::strncmp(arg, key, n) == 0 && arg[n] == '=') {
        *value = arg + n + 1;
        return true;
    }
    return false;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) ==
               0;
}

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
    SimConfig config = paperConfig();
    config.skipInsts = 20000;
    config.measureInsts = 200000;
    config.core.fetch.wrongPath = WrongPathMode::Stall;

    std::string target;
    std::string nrrText;  // remembered so --regs/--rob can reapply it
    std::string dumpSpec;
    std::string outPath;
    std::string figure;
    std::vector<SweepAxis> axes;
    ShardSpec shard;
    ConfigCliArgs cli;

    // Legacy flags are thin aliases: they append the equivalent --set
    // assignment, so interleavings with --set keep command-line order
    // and the shared contract (--config loads first, --set wins) holds.
    auto alias = [&cli](const std::string &key, const std::string &value) {
        cli.assignments.push_back(key + "=" + value);
    };

    for (int i = 1; i < argc; ++i) {
        const char *v = nullptr;
        if (std::strcmp(argv[i], "--list") == 0) {
            for (const auto &info : benchmarkTable())
                std::cout << info.name << (info.isFp ? "  [fp] " : " [int] ")
                          << info.sketch << "\n";
            return 0;
        } else if (std::strcmp(argv[i], "--help-params") == 0) {
            printParamHelp(std::cout);
            return 0;
        } else if (parseConfigArg(argc, argv, i, cli)) {
            // --set / --set= / --config= / --dump-config taken.
        } else if (matchArg(argv[i], "--sweep", &v)) {
            axes.push_back(parseSweepAxis(v));
        } else if (std::strcmp(argv[i], "--sweep") == 0 && i + 1 < argc) {
            axes.push_back(parseSweepAxis(argv[++i]));
        } else if (matchArg(argv[i], "--figure", &v)) {
            figure = v;
        } else if (matchArg(argv[i], "--shard", &v)) {
            shard = parseShard(v);
        } else if (std::strcmp(argv[i], "--sampling") == 0) {
            alias("sim.sampling.enable", "1");
        } else if (matchArg(argv[i], "--result-cache", &v)) {
            alias("sim.result_cache.dir", v);
        } else if (std::strcmp(argv[i], "--wrongpath") == 0) {
            alias("core.fetch.wrong_path", "synthesize");
        } else if (std::strcmp(argv[i], "--wrongpath-mem") == 0) {
            alias("core.fetch.wrong_path", "synthesize");
            alias("core.fetch.wrong_path_mem", "1");
        } else if (matchArg(argv[i], "--out", &v)) {
            outPath = v;
        } else if (matchArg(argv[i], "--scheme", &v)) {
            alias("core.scheme", v);
        } else if (matchArg(argv[i], "--regs", &v)) {
            alias("core.rename.regfile_size", v);
            if (!nrrText.empty())
                alias("core.rename.nrr", nrrText);
        } else if (matchArg(argv[i], "--nrr", &v)) {
            nrrText = v;
            alias("core.rename.nrr", v);
        } else if (matchArg(argv[i], "--rob", &v)) {
            alias("core.window", v);
            if (!nrrText.empty())
                alias("core.rename.nrr", nrrText);
        } else if (matchArg(argv[i], "--skip", &v)) {
            alias("skip_insts", v);
        } else if (matchArg(argv[i], "--insts", &v)) {
            alias("measure_insts", v);
        } else if (matchArg(argv[i], "--miss", &v)) {
            alias("core.cache.miss_penalty", v);
        } else if (matchArg(argv[i], "--mshrs", &v)) {
            alias("core.cache.num_mshrs", v);
        } else if (matchArg(argv[i], "--seed", &v)) {
            alias("seed", v);
        } else if (matchArg(argv[i], "--jobs", &v)) {
            config.jobs = parseJobs(v);
        } else if (matchArg(argv[i], "--dump-trace", &v)) {
            dumpSpec = v;
        } else if (argv[i][0] == '-') {
            usage(argv[0]);
        } else {
            target = argv[i];
        }
    }

    applyConfigCli(config, cli);
    if (cli.dumpConfig) {
        dumpConfig(std::cout, config);
        return 0;
    }
    if (target.empty())
        usage(argv[0]);

    if (!dumpSpec.empty()) {
        auto comma = dumpSpec.find(',');
        std::string file = dumpSpec.substr(0, comma);
        std::size_t n = comma == std::string::npos
            ? 100000
            : std::strtoull(dumpSpec.c_str() + comma + 1, nullptr, 10);
        auto stream = makeBenchmarkStream(target, config.seed);
        std::size_t written = writeTraceFile(file, *stream, n);
        std::cout << "wrote " << written << " records to " << file
                  << "\n";
        return 0;
    }

    if (!axes.empty()) {
        // Declarative sweep: cross product of benchmarks x axes through
        // the grid engine, sharded exactly like the bench binaries.
        if (endsWith(target, ".vprt")) {
            std::cerr << "--sweep needs a benchmark name or 'all', not "
                         "a trace file\n";
            return 1;
        }
        std::vector<std::string> benchmarks;
        if (target == "all")
            benchmarks = benchmarkNames();
        else
            benchmarks.push_back(target);

        const std::vector<GridCell> cells =
            buildSweepGrid(benchmarks, config, axes);
        const std::vector<std::size_t> indices =
            shardCellIndices(cells.size(), shard);
        const std::vector<GridCell> selected =
            selectCells(cells, indices);
        const std::vector<SimResults> results =
            runGrid(selected, config.jobs);

        if (figure.empty())
            figure = "vpr_sim-sweep";
        if (!outPath.empty())
            writeResultsFile(outPath, figure, shard, indices, cells,
                             results);

        if (shard.active()) {
            std::cout << "shard " << shard.index << "/" << shard.count
                      << ": ran " << selected.size() << " of "
                      << cells.size() << " sweep cells";
            if (!outPath.empty())
                std::cout << "; records written to " << outPath;
            else
                std::cout << " (no --out; records discarded)";
            std::cout << "\n";
            return 0;
        }
        printSweepTable(std::cout, axes, cells, results);
        return 0;
    }

    if (shard.active()) {
        std::cerr << "--shard only applies to --sweep runs\n";
        return 1;
    }

    // --out: one record per run. Every index of the run's grid is
    // exported (non-sweep vpr_sim runs never shard; the bench binaries
    // and --sweep do).
    auto exportRecords = [&outPath](const std::string &figureName,
                                    const std::vector<GridCell> &cells,
                                    const std::vector<SimResults> &results) {
        if (!outPath.empty())
            exportAllCells(outPath, figureName, cells, results);
    };

    if (target == "all") {
        // Sweep every benchmark on the parallel engine and summarize.
        std::vector<GridCell> cells;
        for (const auto &name : benchmarkNames())
            cells.push_back({name, config});
        std::vector<SimResults> results = runGrid(cells, config.jobs);
        exportRecords(figure.empty() ? "vpr_sim-all" : figure, cells,
                      results);

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

    GridCell cell{target, config};
    if (endsWith(target, ".vprt")) {
        // Finite trace: keep the warm-up from swallowing it whole.
        const std::size_t records = FileTraceStream(target).size();
        if (cell.config.skipInsts >= records / 2)
            cell.config.skipInsts = records / 10;
        cell.makeStream = [target] {
            return std::make_unique<FileTraceStream>(target);
        };
    }
    const SimResults r = runGrid({cell}, config.jobs).front();
    printReport(std::cout, cell.config, r);
    exportRecords(figure.empty() ? "vpr_sim" : figure, {cell}, {r});
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain([&] { return simMain(argc, argv); });
}
