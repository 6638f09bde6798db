/**
 * @file
 * Reorder buffer.
 *
 * Owns the DynInst storage for all in-flight instructions. The paper's
 * configuration is a 128-entry ROB; its size *is* the instruction
 * window. Entries carry the Figure-2 fields (logical destination,
 * completed bit, previous VP mapping) inside DynInst; the hot scalars
 * (phase, seq, cycle stamps, scheduler flags) live in the InstHotPool,
 * indexed by the entry's physical slot — allocate() binds the two and
 * fully reinitialises the hot row, which is what makes slot reuse after
 * the recovery walk safe for the lazy-staleness idiom. The buffer
 * supports the paper's recovery walk: popping entries youngest-first
 * down to the offending instruction.
 */

#ifndef VPR_CORE_ROB_HH
#define VPR_CORE_ROB_HH

#include "common/circular_buffer.hh"
#include "common/stats.hh"
#include "core/dyn_inst.hh"
#include "core/inst_hot.hh"

namespace vpr
{

/** The reorder buffer; owner of in-flight DynInsts. */
class Rob
{
  public:
    Rob(std::size_t entries, InstHotPool &hotPool)
        : buf(entries), hot(hotPool),
          occupancy(stats::Distribution::evenBuckets(
              "occupancy", "entries occupied per cycle", 0, entries, 16))
    {
        VPR_ASSERT(hotPool.capacity() >= entries,
                   "hot-state pool smaller than the ROB");
        occupancy.countValuesUpTo(entries);
        group.add(&occupancy);
    }

    /** Register the "rob" stat group into the core's stats tree. */
    void regStats(stats::StatRegistry &r) { r.add(&group); }

    bool full() const { return buf.full(); }
    bool empty() const { return buf.empty(); }
    std::size_t size() const { return buf.size(); }
    std::size_t capacity() const { return buf.capacity(); }

    /**
     * Allocate the tail entry: a DynInst value-initialised in its slot
     * and bound to its (fully reset) hot-state row. The caller fills
     * in the cold fields and hot stamps in place — no DynInst copy.
     * @return a pointer that stays valid until the entry is removed.
     */
    DynInst *
    allocate()
    {
        DynInst &d = buf.emplaceBack();
        auto slot = static_cast<HotIdx>(buf.physIndexOf(buf.size() - 1));
        hot.reset(slot);
        d.bindHot(&hot, slot);
        return &d;
    }

    /** Oldest instruction. */
    DynInst &head() { return buf.front(); }
    const DynInst &head() const { return buf.front(); }

    /** Hot-state slot of the oldest instruction: the commit walk checks
     *  the head's phase through the packed arrays without touching the
     *  DynInst. */
    HotIdx headSlot() const { return static_cast<HotIdx>(buf.physIndexOf(0)); }

    /** Youngest instruction. */
    DynInst &tail() { return buf.back(); }

    /** Retire the oldest instruction. */
    void commitHead() { buf.popFront(); }

    /** Remove the youngest instruction (recovery walk step). */
    void squashTail() { buf.popBack(); }

    /** Logical indexing, 0 = oldest (tests/inspection). */
    DynInst &at(std::size_t i) { return buf.at(i); }
    const DynInst &at(std::size_t i) const { return buf.at(i); }

    /** Hot-state slot of the entry at logical position @p i. */
    HotIdx
    slotAt(std::size_t i) const
    {
        return static_cast<HotIdx>(buf.physIndexOf(i));
    }

    /** The pool holding every entry's hot state. */
    const InstHotPool &hotPool() const { return hot; }

    /** Record the occupancy for this cycle. */
    void sampleOccupancy() { occupancy.sampleCounted(buf.size()); }

    const stats::Distribution &occupancyStat() const { return occupancy; }
    stats::Distribution &occupancyStat() { return occupancy; }

  private:
    CircularBuffer<DynInst> buf;
    InstHotPool &hot;
    stats::StatGroup group{"rob"};
    stats::Distribution occupancy;
};

} // namespace vpr

#endif // VPR_CORE_ROB_HH
