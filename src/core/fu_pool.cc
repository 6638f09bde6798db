#include "core/fu_pool.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/params.hh"

namespace vpr
{

void
FuPoolConfig::visitParams(ParamVisitor &v)
{
    v.uintParam("simple_int", simpleInt,
                "simple-integer units (fully pipelined)");
    v.uintParam("complex_int", complexInt,
                "complex-integer units (mul pipelined, div holds the "
                "unit)");
    v.uintParam("eff_addr", effAddr,
                "effective-address units (fully pipelined)");
    v.uintParam("simple_fp", simpleFp,
                "simple-FP units (fully pipelined)");
    v.uintParam("fp_mul", fpMul, "FP multiply units (fully pipelined)");
    v.uintParam("fp_div_sqrt", fpDivSqrt,
                "FP divide/sqrt units (unpipelined)");
}

unsigned
FuPoolConfig::count(FUType t) const
{
    switch (t) {
      case FUType::SimpleInt: return simpleInt;
      case FUType::ComplexInt: return complexInt;
      case FUType::EffAddr: return effAddr;
      case FUType::SimpleFp: return simpleFp;
      case FUType::FpMul: return fpMul;
      case FUType::FpDivSqrt: return fpDivSqrt;
      case FUType::None: return ~0u;  // nops need no unit
      default: VPR_PANIC("bad FU type");
    }
}

FuPool::FuPool(const FuPoolConfig &config) : cfg(config)
{
    for (std::size_t i = 0; i < kNumFUTypes; ++i)
        counts[i] = cfg.count(static_cast<FUType>(i));
}

void
FuPool::beginCycle(Cycle now)
{
    usedThisCycle.fill(0);
    // Drop expired unpipelined reservations (most lists are empty:
    // only the dividers hold a unit past its issue cycle).
    for (auto &v : busyUntil) {
        if (v.empty())
            continue;
        v.erase(std::remove_if(v.begin(), v.end(),
                               [now](Cycle c) { return c <= now; }),
                v.end());
    }
}

bool
FuPool::tryIssue(OpClass op, Cycle now, Cycle completeCycle)
{
    FUType t = fuTypeFor(op);
    if (t == FUType::None) {
        ++issued[static_cast<std::size_t>(t)];
        return true;
    }
    if (available(t, now) == 0) {
        ++nHazards;
        return false;
    }
    std::size_t i = static_cast<std::size_t>(t);
    ++issued[i];
    if (opUnpipelined(op)) {
        // The busy-until entry covers the issue cycle as well (the
        // completion cycle is strictly in the future), so the
        // per-cycle counter must not double-count the unit.
        busyUntil[i].push_back(completeCycle);
    } else {
        ++usedThisCycle[i];
    }
    return true;
}

} // namespace vpr
