/**
 * @file
 * Miss Status Holding Registers for the lockup-free cache.
 *
 * Kroft-style: each MSHR tracks one outstanding line fill. Accesses to a
 * line that is already in flight merge into the existing entry instead of
 * issuing a second fill. The paper allows up to 8 pending misses to
 * different cache lines.
 */

#ifndef VPR_MEMORY_MSHR_HH
#define VPR_MEMORY_MSHR_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hh"

namespace vpr
{

/** One in-flight line fill. */
struct Mshr
{
    Addr lineAddr = 0;      ///< line-aligned address being fetched
    Cycle fillCycle = 0;    ///< cycle the line arrives in the cache
    bool needsWriteback = false; ///< victim is dirty, write back at fill
    Addr victimLine = 0;    ///< victim line address (for stats/debug)
    unsigned targets = 0;   ///< accesses merged into this fill
    bool dirty = false;     ///< a merged store will dirty the line
};

/** Fixed-size MSHR file. */
class MshrFile
{
  public:
    explicit MshrFile(std::size_t entries = 8);

    bool full() const { return live.size() >= capacity; }
    std::size_t size() const { return live.size(); }
    std::size_t maxEntries() const { return capacity; }

    /** Find the in-flight entry covering @p lineAddr, if any. */
    Mshr *find(Addr lineAddr);

    /** Allocate an entry; caller must check !full() first. */
    Mshr &allocate(Addr lineAddr, Cycle fillCycle);

    /**
     * Remove entries whose fill completed at or before @p now and hand
     * them to @p sink (used by the cache to install tags). The earliest
     * pending fill cycle is cached so the common every-cycle call with
     * nothing due returns without touching the entries at all.
     */
    template <typename Sink>
    void
    retireUpTo(Cycle now, Sink &&sink)
    {
        if (earliestFill > now)
            return;
        std::size_t keep = 0;
        Cycle earliest = kNoCycle;
        for (std::size_t i = 0; i < live.size(); ++i) {
            if (live[i].fillCycle <= now) {
                sink(live[i]);
            } else {
                if (live[i].fillCycle < earliest)
                    earliest = live[i].fillCycle;
                live[keep++] = live[i];
            }
        }
        live.resize(keep);
        earliestFill = earliest;
    }

    void
    clear()
    {
        live.clear();
        earliestFill = kNoCycle;
    }

    /** All live entries (tests/inspection). */
    const std::vector<Mshr> &entries() const { return live; }

  private:
    std::size_t capacity;
    std::vector<Mshr> live;
    /** Earliest pending fillCycle (kNoCycle when empty); valid because
     *  an entry's fill cycle never changes after allocation. */
    Cycle earliestFill = kNoCycle;
};

} // namespace vpr

#endif // VPR_MEMORY_MSHR_HH
