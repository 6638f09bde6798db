/**
 * @file
 * Synthetic SPEC95-like benchmark kernels.
 *
 * The paper evaluates nine SPEC95 programs traced with ATOM on an Alpha
 * 21164 (50 M instructions after a 100 M skip). We cannot ship SPEC95
 * binaries or an Alpha tracer, so each benchmark is replaced by a
 * deterministic synthetic kernel with the same *signature*: instruction
 * mix, working-set size (and hence L1 miss rate against the paper's
 * 16 KB direct-mapped cache), dependence-chain depth, and branch
 * predictability. The virtual-physical register effect is driven
 * precisely by these parameters, not by the functional program
 * semantics (README "Reproduce the paper").
 *
 * FP kernels:  apsi, swim, mgrid, hydro2d, wave5
 * Int kernels: go, li, compress, vortex
 */

#ifndef VPR_TRACE_KERNELS_KERNELS_HH
#define VPR_TRACE_KERNELS_KERNELS_HH

#include <memory>
#include <string>
#include <vector>

#include "trace/loop_trace.hh"

namespace vpr
{

/** Static information about one synthetic benchmark. */
struct BenchmarkInfo
{
    std::string name;   ///< SPEC95 name the kernel mimics
    bool isFp;          ///< true for floating-point benchmarks
    std::string sketch; ///< one-line description of the synthetic shape
};

/** The benchmarks in the paper's reporting order (int first, then FP). */
const std::vector<BenchmarkInfo> &benchmarkTable();

/** Names only, in reporting order. */
std::vector<std::string> benchmarkNames();

/** Lookup by name; fatal()s on unknown benchmark. */
const BenchmarkInfo &benchmarkInfo(const std::string &name);

/** Build the kernel description for a benchmark. */
KernelDesc makeKernel(const std::string &name, std::uint64_t seed = 0);

/** Build a ready-to-run trace stream for a benchmark. */
std::unique_ptr<LoopTraceStream>
makeBenchmarkStream(const std::string &name, std::uint64_t seed = 0);

/** Individual kernel constructors (seed 0 = per-kernel default). @{ */
KernelDesc makeGo(std::uint64_t seed = 0);
KernelDesc makeLi(std::uint64_t seed = 0);
KernelDesc makeCompress(std::uint64_t seed = 0);
KernelDesc makeVortex(std::uint64_t seed = 0);
KernelDesc makeApsi(std::uint64_t seed = 0);
KernelDesc makeSwim(std::uint64_t seed = 0);
KernelDesc makeMgrid(std::uint64_t seed = 0);
KernelDesc makeHydro2d(std::uint64_t seed = 0);
KernelDesc makeWave5(std::uint64_t seed = 0);
/** @} */

} // namespace vpr

#endif // VPR_TRACE_KERNELS_KERNELS_HH
