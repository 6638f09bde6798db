/**
 * @file
 * Quickstart: simulate one benchmark under the conventional and the
 * virtual-physical renaming schemes and compare IPC.
 *
 * Usage: quickstart [benchmark] (default: swim)
 */

#include <iostream>
#include <string>

#include "common/logging.hh"
#include "sim/experiment.hh"
#include "trace/kernels/kernels.hh"

using namespace vpr;

namespace
{

int
quickstartMain(int argc, char **argv)
{
    std::string bench = argc > 1 ? argv[1] : "swim";

    std::cout << "benchmark: " << bench << " — "
              << benchmarkInfo(bench).sketch << "\n\n";

    // The paper's machine: 8-wide, 128-entry window, 64 physical
    // registers per file, NRR at its maximum (32).
    SimConfig config = paperConfig();
    config.skipInsts = 10000;
    config.measureInsts = 100000;

    config.setScheme(RenameScheme::Conventional);
    SimResults conv = runOne(bench, config);

    config.setScheme(RenameScheme::VPAllocAtWriteback);
    SimResults vp = runOne(bench, config);

    std::cout << "conventional renaming:        IPC = " << conv.ipc()
              << "\n";
    std::cout << "virtual-physical (writeback): IPC = " << vp.ipc()
              << "\n";
    std::cout << "speedup: " << vp.ipc() / conv.ipc() << "x\n\n";

    std::cout << "register holding time per value (cycles):\n";
    std::cout << "  conventional: int=" << conv.meanHoldCyclesInt()
              << " fp=" << conv.meanHoldCyclesFp() << "\n";
    std::cout << "  virt-phys:    int=" << vp.meanHoldCyclesInt()
              << " fp=" << vp.meanHoldCyclesFp() << "\n";
    std::cout << "\nre-executions per committed instruction (vp): "
              << vp.executionsPerCommit() << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain([&] { return quickstartMain(argc, argv); });
}
