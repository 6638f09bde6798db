/**
 * @file
 * Functional-unit pool per Table 1 of the paper.
 *
 * Per-type unit counts with per-cycle issue limits. Fully pipelined
 * units accept one operation per cycle each; the integer and FP dividers
 * are unpipelined and stay busy for the whole operation.
 */

#ifndef VPR_CORE_FU_POOL_HH
#define VPR_CORE_FU_POOL_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "isa/op_class.hh"

namespace vpr
{

class ParamVisitor;

/** Configurable unit counts (defaults = paper's Table 1). */
struct FuPoolConfig
{
    unsigned simpleInt = 3;
    unsigned complexInt = 2;
    unsigned effAddr = 3;
    unsigned simpleFp = 3;
    unsigned fpMul = 2;
    unsigned fpDivSqrt = 2;

    unsigned count(FUType t) const;

    /** Reflect the unit counts (sim/params.hh). */
    void visitParams(ParamVisitor &v);
};

/** Tracks functional-unit availability cycle by cycle. */
class FuPool
{
  public:
    explicit FuPool(const FuPoolConfig &config = FuPoolConfig());

    /** Start a new cycle: clears the per-cycle issue counters. */
    void beginCycle(Cycle now);

    /** Units of @p t that could still accept an op this cycle. Inline
     *  with the per-type count cached at construction: the issue stage
     *  probes availability for every candidate every cycle. */
    unsigned
    available(FUType t, Cycle now) const
    {
        if (t == FUType::None)
            return ~0u;
        std::size_t i = static_cast<std::size_t>(t);
        unsigned busy = 0;
        for (Cycle c : busyUntil[i])
            if (c > now)
                ++busy;
        unsigned inUse = busy + usedThisCycle[i];
        return inUse >= counts[i] ? 0 : counts[i] - inUse;
    }

    /**
     * Try to issue an op of class @p op at cycle @p now finishing at
     * @p completeCycle. Unpipelined classes hold a unit until
     * completion.
     * @return true on success (the unit is claimed).
     */
    bool tryIssue(OpClass op, Cycle now, Cycle completeCycle);

    const FuPoolConfig &config() const { return cfg; }

    /** Issued-op counters per FU type (stats). */
    std::uint64_t issuedOps(FUType t) const
    {
        return issued[static_cast<std::size_t>(t)];
    }

    /** Ops denied because all units were busy (stats). */
    std::uint64_t structuralHazards() const { return nHazards; }

  private:
    FuPoolConfig cfg;
    /** cfg.count(t) per type, cached at construction (hot-path read). */
    std::array<unsigned, kNumFUTypes> counts{};
    /** Per-type ops accepted this cycle. */
    std::array<unsigned, kNumFUTypes> usedThisCycle{};
    /** Busy-until cycles of unpipelined ops, per type. */
    std::array<std::vector<Cycle>, kNumFUTypes> busyUntil;
    std::array<std::uint64_t, kNumFUTypes> issued{};
    std::uint64_t nHazards = 0;
};

} // namespace vpr

#endif // VPR_CORE_FU_POOL_HH
