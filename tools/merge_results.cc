/**
 * @file
 * merge_results — stitch sharded sweep records back together.
 *
 * Usage:
 *   merge_results [-o merged.csv] [--render] [config flags]
 *                 [--no-verify-config] shard0.csv shard1.csv ...
 *
 * Reads the CSV record files written by vpr_sim's --out flag for a
 * figure target or a --sweep (one record per grid cell, any subset per
 * file), verifies that together they cover the whole grid exactly
 * once, and writes the full cell-ordered result set — byte-identical
 * to what a single unsharded --out run would have produced.
 *
 * Shards carry full config provenance: the merge refuses inputs whose
 * embedded provenance disagrees. Shards produced from different base
 * configurations fail the whole-grid digest comparison, and when the
 * figure named in the metadata is in the figure registry, every row is
 * additionally checked key by key against the rebuilt grid — a record
 * from a stale binary or a differently-configured run is fatal, naming
 * the first differing dotted key. Pass the same config flags the
 * shards ran with (--set, --config, --sampling, --sampling-preset) so
 * the rebuilt grid matches: they apply to the figures' base config
 * exactly as in vpr_sim; --no-verify-config skips the registry check
 * (the digest check always runs).
 *
 * With --render, the paper-style table is re-rendered from the merged
 * records to stdout. The figure named in the file metadata is looked up
 * in the figure registry and its renderer — the same code
 * `vpr_sim <figure>` runs — is fed the reconstructed results, so the
 * table is byte-identical to the unsharded run's.
 *
 * Options:
 *   -o <path>    write the merged CSV (default: stdout unless --render);
 *                a failed write is one "fatal:" line and exit 1
 *   --render     re-render the figure's table from the merged records
 *   --set <k>=<v>, --config=<file>, --sampling,
 *   --sampling-preset=<figure>
 *                the config flags the shards were run with
 *   --dump-config      print the rebuilt grid's base config and exit
 *   --no-verify-config skip the per-row provenance check
 */

#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/io/zio.hh"
#include "common/logging.hh"
#include "figures.hh"
#include "sim/params.hh"
#include "sim/results_io.hh"

using namespace vpr;

namespace
{

constexpr const char *kUsage =
    "usage: merge_results [-o merged.csv] [--render] [--set <k>=<v>] "
    "[--config=<file>] [--sampling] [--sampling-preset=<figure>] "
    "[--no-verify-config] shard.csv...";

int
mergeMain(int argc, char **argv)
{
    std::string outPath;
    bool render = false;
    bool verifyConfig = true;
    std::vector<std::string> inputs;
    ConfigCliArgs cli;

    for (int i = 1; i < argc; ++i) {
        const char *v = nullptr;
        if (std::strcmp(argv[i], "-o") == 0 && i + 1 < argc) {
            outPath = argv[++i];
        } else if (std::strcmp(argv[i], "--render") == 0) {
            render = true;
        } else if (std::strcmp(argv[i], "--no-verify-config") == 0) {
            verifyConfig = false;
        } else if (parseConfigArg(argc, argv, i, cli)) {
            // --set / --config= / --dump-config / --sampling taken.
        } else if (matchArg(argv[i], "--sampling-preset", &v)) {
            for (const std::string &a : bench::samplingPresetAssignments(v))
                cli.assignments.push_back(a);
        } else if (std::strcmp(argv[i], "--help") == 0) {
            std::cout << kUsage << "\n";
            return 0;
        } else if (argv[i][0] == '-') {
            VPR_FATAL("unrecognized argument '", argv[i], "'; ", kUsage);
        } else {
            inputs.push_back(argv[i]);
        }
    }
    // The base vpr_sim builds a figure's grid over.
    SimConfig base = bench::experimentConfig();
    applyConfigCli(base, cli);
    if (cli.dumpConfig) {
        dumpConfig(std::cout, base);
        return 0;
    }
    if (inputs.empty())
        VPR_FATAL("no shard files; ", kUsage);

    std::vector<ResultsFile> shards;
    for (const std::string &path : inputs)
        shards.push_back(readResultsCsvFile(path));

    // Refuse mismatched provenance before any output: per-row against
    // the rebuilt grid when the figure is registered (names the first
    // differing dotted key); mergeResults' whole-grid digest check
    // covers the rest.
    const bench::FigureDef *def = bench::findFigure(shards.front().figure);
    if (verifyConfig && def) {
        const std::vector<GridCell> cells = def->build(base);
        if (cells.size() != shards.front().totalCells)
            VPR_FATAL("figure '", shards.front().figure, "' now has ",
                      cells.size(), " cells but the records carry ",
                      shards.front().totalCells,
                      " — re-run the sweep with this binary");
        for (std::size_t i = 0; i < shards.size(); ++i)
            verifyCellProvenance(shards[i], cells, inputs[i]);
    }

    ResultsFile merged = mergeResults(shards);

    if (!outPath.empty()) {
        std::ostringstream os;
        writeMergedCsv(os, merged);
        if (!writeOutputFile(outPath, os.str()))
            VPR_FATAL("error writing '", outPath, "'");
    } else if (!render) {
        writeMergedCsv(std::cout, merged);
    }

    if (render) {
        if (!def)
            VPR_FATAL("figure '", merged.figure,
                      "' is not in the figure registry; cannot render "
                      "(merge with -o still works)");
        const std::vector<GridCell> cells = def->build(base);
        if (cells.size() != merged.totalCells)
            VPR_FATAL("figure '", merged.figure, "' now has ",
                      cells.size(), " cells but the records carry ",
                      merged.totalCells,
                      " — re-run the sweep with this binary");
        def->render(cells, resultsFromFile(merged), std::cout);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain([&] { return mergeMain(argc, argv); });
}
