/**
 * @file
 * Explore the paper's key design parameter: NRR, the number of oldest
 * destination-writing instructions guaranteed a physical register
 * (section 3.3). Runs one benchmark across the full NRR range for both
 * allocation policies and prints the speedup curve over conventional
 * renaming — the per-benchmark view behind Figures 4 and 5.
 *
 * The whole sweep is submitted to the ParallelExperimentEngine as one
 * grid; the printed table is byte-identical for every --jobs value.
 *
 * Usage: nrr_explorer [--jobs N] [--out F] [--set k=v] [--config=F]
 *                     [--dump-config] [benchmark] [physRegs]
 *        (defaults: hydro2d 64; jobs from VPR_JOBS, else 1; jobs 0 =
 *        one per hw thread;
 *        --out writes one record per grid cell, CSV or .json; --set /
 *        --config override any dotted config parameter of the base
 *        machine — run vpr_sim --help-params for the list)
 */

#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "sim/experiment.hh"
#include "sim/params.hh"
#include "sim/results_io.hh"
#include "trace/kernels/kernels.hh"

using namespace vpr;

namespace
{

int
explorerMain(int argc, char **argv)
{
    std::string bench = "hydro2d";
    std::uint16_t physRegs = 64;
    std::optional<unsigned> jobsFlag;
    std::string outPath;
    ConfigCliArgs cliConfig;

    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
            jobsFlag = parseJobs(argv[++i], "--jobs");
        } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
            jobsFlag = parseJobs(argv[i] + 7, "--jobs");
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            outPath = argv[++i];
        } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
            outPath = argv[i] + 6;
        } else if (parseConfigArg(argc, argv, i, cliConfig)) {
            // --set / --set= / --config= / --dump-config taken.
        } else {
            positional.push_back(argv[i]);
        }
    }
    if (positional.size() > 0)
        bench = positional[0];
    if (positional.size() > 1)
        physRegs =
            static_cast<std::uint16_t>(std::atoi(positional[1].c_str()));

    SimConfig config = paperConfig();
    config.setPhysRegs(physRegs);
    config.skipInsts = 10000;
    config.measureInsts = 80000;
    config.core.fetch.wrongPath = WrongPathMode::Stall;
    applyConfigCli(config, cliConfig);
    if (cliConfig.dumpConfig) {
        dumpConfig(std::cout, config);
        return 0;
    }

    // The NRR points of the sweep (powers of two up to NPR - NLR, with
    // the maximum always included). Read back from the config so a
    // --set/--config override of the register-file size is honoured.
    physRegs = config.core.rename.numPhysRegs;
    std::uint16_t maxNrr =
        static_cast<std::uint16_t>(physRegs - kNumLogicalRegs);
    std::vector<std::uint16_t> nrrs;
    for (std::uint16_t nrr = 1; nrr <= maxNrr; nrr *= 2) {
        nrrs.push_back(nrr);
        if (nrr == maxNrr)
            break;
        if (nrr * 2 > maxNrr)
            nrr = maxNrr / 2;  // make sure the max value is included
    }

    // One grid: the conventional baseline plus (writeback, issue) cells
    // for every NRR point.
    std::vector<GridCell> cells;
    config.setScheme(RenameScheme::Conventional);
    cells.push_back({bench, config});
    for (std::uint16_t nrr : nrrs) {
        config.setNrr(nrr);
        config.setScheme(RenameScheme::VPAllocAtWriteback);
        cells.push_back({bench, config});
        config.setScheme(RenameScheme::VPAllocAtIssue);
        cells.push_back({bench, config});
    }
    std::vector<SimResults> results =
        runGrid(cells, jobsFlag ? *jobsFlag : defaultJobs());

    if (!outPath.empty())
        exportAllCells(outPath, "nrr_explorer", cells, results);

    double conv = results[0].ipc();
    std::cout << "benchmark " << bench << ", " << physRegs
              << " physical registers/file; conventional IPC = "
              << std::fixed << std::setprecision(3) << conv << "\n\n";
    std::cout << std::setw(6) << "NRR" << std::setw(14) << "writeback"
              << std::setw(14) << "issue" << "   (speedup over conv)\n";

    for (std::size_t i = 0; i < nrrs.size(); ++i) {
        double wb = results[1 + 2 * i].ipc() / conv;
        double iss = results[2 + 2 * i].ipc() / conv;
        std::cout << std::setw(6) << nrrs[i] << std::setw(14) << wb
                  << std::setw(14) << iss << "\n";
    }
    std::cout << "\nLow NRR starves the oldest instructions (they must "
                 "wait for re-execution slots);\nhigh NRR reserves "
                 "everything for the oldest, behaving like the "
                 "conventional scheme\nplus late allocation. The paper "
                 "finds NRR = 32 best on average for both policies.\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain([&] { return explorerMain(argc, argv); });
}
