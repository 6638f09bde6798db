/**
 * @file
 * Floating-point synthetic kernels: apsi, swim, mgrid, hydro2d, wave5.
 *
 * Calibration model: with NPR = 64 the conventional scheme sustains
 * about (NPR-NLR)/fpDestsPerIter iterations in flight, the VP scheme
 * about ROB/instsPerIter; the achievable IPC is the
 * minimum of the memory bandwidth bound
 *     outstandingMisses / (missesPerIter * missPenalty) * instsPerIter
 * (outstanding capped by the 8 MSHRs), the cross-iteration dependence
 * bound, and the FU/issue bounds. Each kernel picks missesPerIter,
 * fpDestsPerIter and chain depth so the conventional/VP gap lands near
 * the paper's Table 2 ratio for that benchmark.
 *
 * Stream bases are offset by distinct multiples of 4 KB modulo the
 * 16 KB direct-mapped cache so concurrently touched lines do not map to
 * the same set (array "padding" a Fortran compiler would give you).
 */

#include "trace/kernels/kernels.hh"

namespace vpr
{

namespace
{

using K = MemStreamDesc::Kind;

constexpr RegId r(std::uint16_t i) { return RegId::intReg(i); }
constexpr RegId f(std::uint16_t i) { return RegId::fpReg(i); }

InstTemplate
op(OpClass c, RegId d, RegId s0, RegId s1 = RegId::none())
{
    return InstTemplate::compute(c, d, s0, s1);
}

MemStreamDesc
stride(Addr base, std::int64_t strideBytes, std::uint64_t region)
{
    MemStreamDesc m;
    m.kind = K::Stride;
    m.base = base;
    m.stride = strideBytes;
    m.region = region;
    return m;
}

MemStreamDesc
randomIn(Addr base, std::uint64_t region)
{
    MemStreamDesc m;
    m.kind = K::Random;
    m.base = base;
    m.region = region;
    return m;
}

BranchDesc
loopBranch(RegId src, unsigned trip, int self, int exit)
{
    BranchDesc b;
    b.kind = BranchDesc::Kind::Loop;
    b.src = src;
    b.tripCount = trip;
    b.takenTarget = self;
    b.fallThrough = exit;
    return b;
}

} // namespace

KernelDesc
makeSwim(std::uint64_t seed)
{
    // Shallow-water stencil: independent iterations streaming through
    // three 2 MB arrays (2 loads + 1 store, 8 B elements, so 0.75 line
    // misses per iteration). 6 FP destinations per 10-instruction
    // iteration: the conventional scheme holds ~5 iterations (~4
    // outstanding misses), the VP scheme ~13 (MSHR-capped at 8) —
    // memory-level parallelism is exactly what late allocation buys.
    KernelDesc k;
    k.name = "swim";
    k.seed = seed ? seed : 0x5317ull;
    k.streams = {
        stride(0x10000000, 8, 2 << 20),           // u[]
        stride(0x20001000, 8, 2 << 20),           // v[]
        stride(0x30002000, 8, 2 << 20),           // p[] (output)
    };

    BlockDesc body;
    body.insts = {
        InstTemplate::loadFrom(0, f(1), r(1)),
        InstTemplate::loadFrom(1, f(2), r(2)),
        op(OpClass::FpAdd, f(3), f(1), f(2)),
        op(OpClass::FpMult, f(4), f(3), f(10)),
        op(OpClass::FpAdd, f(5), f(4), f(1)),
        op(OpClass::FpAdd, f(6), f(5), f(2)),
        InstTemplate::storeTo(2, f(6), r(3)),
        op(OpClass::IntAlu, r(1), r(1), r(5)),
        op(OpClass::IntAlu, r(2), r(2), r(5)),
    };
    body.branch = loopBranch(r(1), 2048, 0, 0);
    k.blocks = {body};
    return k;
}

KernelDesc
makeMgrid(std::uint64_t seed)
{
    // Multigrid relaxation: a large-stride sweep (every other access a
    // new line) plus a resident plane, with a deeper per-iteration FP
    // chain and one accumulator. Conventional: ~4.5 iterations in
    // flight, ~2.3 outstanding misses; VP: ~11 iterations, ~5.8 misses.
    KernelDesc k;
    k.name = "mgrid";
    k.seed = seed ? seed : 0x96123ull;
    k.streams = {
        stride(0x10000000, 8, 4 << 20),           // fine grid
        stride(0x20001000, 8, 4 << 20),           // coarse grid
        stride(0x30002000, 8, 4 << 20),           // residual output
    };

    BlockDesc body;
    body.insts = {
        InstTemplate::loadFrom(0, f(1), r(1)),
        InstTemplate::loadFrom(1, f(2), r(2)),
        op(OpClass::FpAdd, f(3), f(1), f(2)),
        op(OpClass::FpMult, f(4), f(3), f(10)),
        op(OpClass::FpAdd, f(5), f(4), f(2)),
        InstTemplate::storeTo(2, f(5), r(3)),
        op(OpClass::IntAlu, r(1), r(1), r(5)),
        op(OpClass::IntAlu, r(2), r(2), r(5)),
    };
    body.branch = loopBranch(r(1), 1024, 0, 0);
    k.blocks = {body};
    return k;
}

KernelDesc
makeApsi(std::uint64_t seed)
{
    // Mesoscale-model mix: a lightly missing stream (0.25 line misses
    // per iteration), few FP destinations per iteration (so the
    // conventional window is not badly register-bound), one accumulator
    // chain, and a divide block every 16 inner iterations.
    KernelDesc k;
    k.name = "apsi";
    k.seed = seed ? seed : 0xa931ull;
    k.streams = {
        stride(0x10000000, 8, 1 << 20),           // 0.25 miss/access
        randomIn(0x20001000, 4 << 10),            // resident table
        stride(0x30002000, 8, 4 << 10),           // resident output
    };

    BlockDesc inner;
    inner.insts = {
        InstTemplate::loadFrom(0, f(1), r(1)),
        InstTemplate::loadFrom(1, r(10), r(2)),
        op(OpClass::FpMult, f(2), f(1), f(10)),
        op(OpClass::FpAdd, f(3), f(2), f(1)),
        op(OpClass::FpAdd, f(12), f(12), f(3)),    // accumulator
        InstTemplate::storeTo(2, f(3), r(3)),
        op(OpClass::IntAlu, r(1), r(1), r(5)),
        op(OpClass::IntAlu, r(11), r(10), r(5)),
    };
    inner.branch = loopBranch(r(1), 16, 0, 1);

    BlockDesc outer;
    outer.insts = {
        op(OpClass::FpDiv, f(20), f(12), f(21)),
        op(OpClass::FpAdd, f(12), f(20), f(22)),
        op(OpClass::IntAlu, r(6), r(6), r(5)),
    };
    outer.branch = loopBranch(r(6), 64, 0, 0);
    k.blocks = {inner, outer};
    return k;
}

KernelDesc
makeHydro2d(std::uint64_t seed)
{
    // Hydrodynamics with a cache-resident working set and four
    // independent multiply/accumulate chains per iteration: high ILP,
    // almost no misses, short register lifetimes — the conventional
    // window already saturates the FP units, so the virtual-physical
    // advantage is small (paper: 4%).
    KernelDesc k;
    k.name = "hydro2d";
    k.seed = seed ? seed : 0x42d0ull;
    k.streams = {
        stride(0x10000000, 8, 4 << 10),           // resident row
        stride(0x20001000, 8, 4 << 10),           // resident column
    };

    BlockDesc body;
    body.insts = {
        InstTemplate::loadFrom(0, f(1), r(1)),
        InstTemplate::loadFrom(1, f(2), r(2)),
        op(OpClass::FpMult, f(3), f(1), f(26)),
        op(OpClass::FpAdd, f(10), f(10), f(3)),
        op(OpClass::FpMult, f(4), f(2), f(26)),
        op(OpClass::FpAdd, f(11), f(11), f(4)),
        op(OpClass::FpMult, f(5), f(1), f(2)),
        op(OpClass::FpAdd, f(12), f(12), f(5)),
        op(OpClass::FpAdd, f(6), f(1), f(2)),
        op(OpClass::FpAdd, f(13), f(13), f(6)),
        op(OpClass::IntAlu, r(1), r(1), r(5)),
        op(OpClass::IntAlu, r(2), r(2), r(5)),
    };
    body.branch = loopBranch(r(1), 512, 0, 0);
    k.blocks = {body};
    return k;
}

KernelDesc
makeWave5(std::uint64_t seed)
{
    // Particle-in-cell update: mostly cache-resident particle state with
    // a light random grid scatter, moderate ILP. Few FP destinations per
    // iteration keep the conventional window adequate, so the VP gain
    // stays small (paper: 4%).
    KernelDesc k;
    k.name = "wave5";
    k.seed = seed ? seed : 0x3a7e5ull;
    k.streams = {
        stride(0x10000000, 8, 4 << 10),           // particle list
        randomIn(0x20001000, 6 << 10),            // grid (resident)
        stride(0x30003000, 8, 4 << 10),           // output
    };

    BlockDesc body;
    body.insts = {
        InstTemplate::loadFrom(0, f(1), r(1)),
        InstTemplate::loadFrom(1, f(2), r(2)),
        op(OpClass::FpMult, f(3), f(1), f(20)),
        op(OpClass::FpAdd, f(4), f(3), f(2)),
        op(OpClass::FpAdd, f(10), f(10), f(4)),    // serial accumulator
        InstTemplate::storeTo(2, f(4), r(3)),
        op(OpClass::IntAlu, r(1), r(1), r(5)),
        op(OpClass::IntAlu, r(2), r(2), r(5)),
    };
    body.branch = loopBranch(r(1), 256, 0, 0);
    k.blocks = {body};
    return k;
}

} // namespace vpr
