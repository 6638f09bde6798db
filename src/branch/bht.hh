/**
 * @file
 * Branch History Table predictor.
 *
 * The paper's configuration: a 2048-entry BHT with one 2-bit up/down
 * saturating counter per entry, indexed by the branch PC. Targets are
 * taken from the trace (equivalent to a perfect BTB), so only the
 * direction is predicted.
 */

#ifndef VPR_BRANCH_BHT_HH
#define VPR_BRANCH_BHT_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace vpr
{

/** 2-bit saturating-counter branch direction predictor. */
class BhtPredictor
{
  public:
    /** @param entries table size; must be a power of two. */
    explicit BhtPredictor(std::size_t entries = 2048);

    /** Predict the direction of the branch at @p pc. */
    bool predict(Addr pc) const;

    /** Train with the actual outcome. */
    void update(Addr pc, bool taken);

    /** Predict and immediately train; returns whether the prediction
     *  was correct. Convenience for the fetch stage. */
    bool predictAndUpdate(Addr pc, bool taken);

    std::size_t numEntries() const { return table.size(); }

    /** Raw counter value, for tests. */
    std::uint8_t counter(Addr pc) const { return table[index(pc)]; }

    /** Prediction accuracy so far (1.0 when no branches seen). */
    double accuracy() const;

    std::uint64_t lookups() const { return nLookups; }
    std::uint64_t mispredicts() const { return nMispredicts; }

    void reset();

  private:
    std::size_t index(Addr pc) const { return (pc >> 2) & mask; }

    std::vector<std::uint8_t> table; ///< 2-bit counters, init weakly taken
    std::size_t mask;
    std::uint64_t nLookups = 0;
    std::uint64_t nMispredicts = 0;
};

} // namespace vpr

#endif // VPR_BRANCH_BHT_HH
