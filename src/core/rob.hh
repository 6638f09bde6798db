/**
 * @file
 * Reorder buffer.
 *
 * Owns the DynInst storage for all in-flight instructions. The paper's
 * configuration is a 128-entry ROB; its size *is* the instruction
 * window. Entries carry the Figure-2 fields (logical destination,
 * completed bit, previous VP mapping) and every other per-instruction
 * scalar inside DynInst. The ring's slots outlive their entries: a
 * retired or squashed instruction stays a live object until allocate()
 * value-initialises its slot for a younger one, which is what lets a
 * scheduler record detect staleness by sequence number alone. The
 * buffer supports the paper's recovery walk: popping entries
 * youngest-first down to the offending instruction.
 */

#ifndef VPR_CORE_ROB_HH
#define VPR_CORE_ROB_HH

#include "common/circular_buffer.hh"
#include "common/stats.hh"
#include "core/dyn_inst.hh"

namespace vpr
{

/** The reorder buffer; owner of in-flight DynInsts. */
class Rob
{
  public:
    explicit Rob(std::size_t entries)
        : buf(entries),
          occupancy(stats::Distribution::evenBuckets(
              "occupancy", "entries occupied per cycle", 0, entries, 16))
    {
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
     * (sequence number 0, so every record of the slot's previous
     * occupant reads as stale). The caller fills it in place — no
     * DynInst copy.
     * @return a pointer that stays valid until the entry is removed.
     */
    DynInst *allocate() { return &buf.emplaceBack(); }

    /** Oldest instruction. */
    DynInst &head() { return buf.front(); }
    const DynInst &head() const { return buf.front(); }

    /** Youngest instruction. */
    DynInst &tail() { return buf.back(); }

    /** Retire the oldest instruction. */
    void commitHead() { buf.popFront(); }

    /** Remove the youngest instruction (recovery walk step). */
    void squashTail() { buf.popBack(); }

    /** Logical indexing, 0 = oldest (tests/inspection). */
    DynInst &at(std::size_t i) { return buf.at(i); }
    const DynInst &at(std::size_t i) const { return buf.at(i); }

    /** Record the occupancy for this cycle. */
    void sampleOccupancy() { occupancy.sampleCounted(buf.size()); }

    const stats::Distribution &occupancyStat() const { return occupancy; }
    stats::Distribution &occupancyStat() { return occupancy; }

  private:
    CircularBuffer<DynInst> buf;
    stats::StatGroup group{"rob"};
    stats::Distribution occupancy;
};

} // namespace vpr

#endif // VPR_CORE_ROB_HH
