/**
 * @file
 * Figure registry and the shared bench main().
 */

#include "figures.hh"

#include <iostream>

#include "common/logging.hh"
#include "sim/results_io.hh"

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

namespace
{

int
runFigure(const std::string &name, int argc, char **argv)
{
    parseArgs(argc, argv);
    const FigureDef *def = findFigure(name);
    if (!def)
        VPR_FATAL("unregistered figure '", name, "'");
    const BenchOptions &opt = benchOptions();
    const bool jsonOut =
        opt.outPath.size() >= 5 &&
        opt.outPath.compare(opt.outPath.size() - 5, 5, ".json") == 0;
    if (opt.shard.active() && jsonOut)
        VPR_FATAL("--shard output must be CSV (tools/merge_results "
                  "cannot merge JSON); drop the .json extension");

    const std::vector<GridCell> cells = def->build();
    const std::vector<std::size_t> indices =
        shardCellIndices(cells.size(), opt.shard);
    const std::vector<GridCell> selected = selectCells(cells, indices);
    const std::vector<SimResults> results =
        runGrid(selected, defaultJobs());

    if (!opt.outPath.empty())
        writeResultsFile(opt.outPath, def->name, opt.shard, indices,
                         cells, results);

    if (opt.shard.active()) {
        // A shard holds only part of the grid; the table comes from
        // merging every shard's records (tools/merge_results --render).
        std::cout << "shard " << opt.shard.index << "/" << opt.shard.count
                  << ": ran " << selected.size() << " of " << cells.size()
                  << " grid cells";
        if (!opt.outPath.empty())
            std::cout << "; records written to " << opt.outPath;
        else
            std::cout << " (no --out; records discarded)";
        std::cout << "\n";
        return 0;
    }

    def->render(cells, results, std::cout);
    return 0;
}

} // namespace

int
figureMain(const std::string &name, int argc, char **argv)
{
    return runMain([&] { return runFigure(name, argc, argv); });
}

} // namespace vpr::bench
