/**
 * @file
 * Load/store queue with PA-8000-style memory disambiguation.
 *
 * The paper assumes the memory disambiguation scheme of the PA-8000's
 * address-reorder buffer: loads may execute out of order with respect to
 * stores only once every older store's address is known; a load whose
 * address matches an older store forwards the store's data instead of
 * accessing the cache. Stores update the data cache at commit.
 *
 * The queue keeps one list, its resident stores in program order, and
 * a load's check is the associative search over them: a scan from the
 * youngest store down to the first older one whose address is not
 * visible yet or overlaps the load. On the paper's figures a check
 * passes about two younger stores and visits about seven older ones.
 * A check changes nothing, so a held load keeps no state here: the
 * issue stage retries it every cycle, like any other per-cycle
 * refusal.
 *
 * Loads are only counted: the ROB already holds every entry in program
 * order, so commit removes the oldest and branch recovery's ROB walk
 * squashes each memory instruction it pops.
 */

#ifndef VPR_CORE_LSQ_HH
#define VPR_CORE_LSQ_HH

#include <cstdint>

#include "common/circular_buffer.hh"
#include "common/stats.hh"
#include "core/dyn_inst.hh"

namespace vpr
{

/** The load/store queue (a single age-ordered structure). */
class Lsq
{
  public:
    explicit Lsq(std::size_t capacity)
        : stores(capacity),
          occupancy(stats::Distribution::evenBuckets(
              "occupancy", "entries occupied per cycle", 0, capacity, 16))
    {
        occupancy.countValuesUpTo(capacity);
        group.add(&occupancy);
        group.add(&nForwards);
        group.add(&nUnknownHolds);
        group.add(&nPartialHolds);
    }

    bool full() const { return resident >= capacity(); }
    bool empty() const { return resident == 0; }
    std::size_t size() const { return resident; }
    std::size_t capacity() const { return stores.capacity(); }

    /** Insert a memory instruction at rename (program order). */
    void insert(DynInst *inst);

    /** Remove @p inst at commit; a store must be the oldest resident
     *  store. */
    void remove(DynInst *inst);

    /** Remove @p inst, the youngest resident (branch recovery's ROB
     *  walk); a store must be the youngest resident store. */
    void squash(DynInst *inst);

    /**
     * Disambiguation check for @p load at cycle @p now: the verdict of
     * the youngest older store whose address is not visible at @p now
     * or overlaps the load, or Ready when there is none.
     */
    LoadHold disambiguate(const DynInst *load, Cycle now) const;

    /** Statistics. @{ */
    std::uint64_t forwards() const { return nForwards.value(); }
    std::uint64_t unknownAddrHolds() const { return nUnknownHolds.value(); }
    std::uint64_t partialOverlapHolds() const
    {
        return nPartialHolds.value();
    }
    /** @} */

    /** Account a hold decision (called by the core at issue time). */
    void recordHold(LoadHold h);

    /** Record this cycle's occupancy (called once per cycle). */
    void sampleOccupancy() { occupancy.sampleCounted(resident); }

    /** Register the "lsq" stat group into the core's stats tree. */
    void regStats(stats::StatRegistry &r) { r.add(&group); }

  private:
    std::size_t resident = 0;
    /** Sequence number of the youngest instruction ever inserted: a
     *  squash never rolls the sequence back, so program order only
     *  needs this watermark. */
    InstSeqNum youngest = 0;
    /** Resident stores, oldest first. Their seqs let a check skip the
     *  stores younger than its load without touching their DynInsts. */
    CircularBuffer<ReadyRef> stores;

    stats::StatGroup group{"lsq"};
    stats::Distribution occupancy;
    stats::Scalar nForwards{"forwards", "store-to-load forwards"};
    stats::Scalar nUnknownHolds{"unknown_addr_holds",
                                "loads held on an unknown store address"};
    stats::Scalar nPartialHolds{
        "partial_overlap_holds",
        "loads held on a partial store overlap"};
};

} // namespace vpr

#endif // VPR_CORE_LSQ_HH
