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
 * Disambiguation is resolved through an address-indexed store table
 * instead of scanning the queue: in-flight stores with computed
 * addresses are hashed at disambiguation-line granularity (16 bytes,
 * >= the largest access, so any overlapping store shares a line with
 * the load), and stores whose addresses are still unknown sit on a
 * seq-sorted watermark list. A load's check reduces to "youngest older
 * store that is unknown or overlaps" — O(1) expected instead of
 * O(queue).
 *
 * Holds are events, not polls: the issue stage parks a held load on its
 * blocking store (subscribeHold), the blocker's address computation or
 * commit releases it, and takeReadyHolds() hands the re-attemptable
 * loads back to the issue stage at exactly the cycle an every-cycle
 * re-check would have unblocked them. Held loads are rare (most store
 * events find none), so they sit on one list that each store event
 * scans.
 *
 * The queue keeps no list of its entries: the ROB already holds them in
 * program order, so the queue counts its residents, commit removes the
 * oldest, and branch recovery's ROB walk squashes each memory
 * instruction it pops.
 */

#ifndef VPR_CORE_LSQ_HH
#define VPR_CORE_LSQ_HH

#include <cstdint>
#include <vector>

#include "common/circular_buffer.hh"
#include "common/stats.hh"
#include "core/dyn_inst.hh"

namespace vpr
{

/** A disambiguation verdict: the hold and the store that caused it
 *  (null when Ready). */
struct LoadCheck
{
    LoadHold hold = LoadHold::Ready;
    const DynInst *blocker = nullptr;
};

/**
 * Line address -> in-flight stores, tuned for streaming address
 * patterns.
 *
 * The live content is tiny — at most two lines per in-flight store —
 * but a streaming benchmark never revisits a line, so a node-based map
 * allocates (node + bucket vector) for every line it touches, forever.
 * This table is open-addressed with linear probing over a power-of-two
 * slot array: erasing a line backward-shifts the probe chain and
 * *swaps* the ReadyRef vectors instead of moving them, so every
 * slot's vector capacity stays resident and steady-state store
 * traffic never reaches the allocator. The array doubles only when
 * the live line count crosses half the capacity (warm-up).
 */
class LineRefMap
{
  public:
    LineRefMap() : slots(kMinSlots) {}

    /** The bucket for @p line, or null if the line is absent. */
    std::vector<ReadyRef> *
    find(Addr line)
    {
        Slot *s = probe(line);
        return s->used ? &s->refs : nullptr;
    }

    /** The bucket for @p line, inserting an empty one if absent. */
    std::vector<ReadyRef> &
    bucket(Addr line)
    {
        Slot *s = probe(line);
        if (!s->used) {
            if ((numUsed + 1) * 2 > slots.size()) {
                grow();
                s = probe(line);
            }
            s->used = true;
            s->line = line;
            ++numUsed;
        }
        return s->refs;
    }

    /** Drop @p line's (empty) bucket so dead keys cannot pile up and
     *  stretch the probe chains. */
    void erase(Addr line);

    std::size_t size() const { return numUsed; }

  private:
    static constexpr std::size_t kMinSlots = 64;

    struct Slot
    {
        Addr line = 0;
        bool used = false;
        std::vector<ReadyRef> refs;
    };

    std::size_t
    ideal(Addr line) const
    {
        // Lines are small sequential integers for streaming patterns;
        // a multiplicative mix spreads clustered patterns without
        // hurting the sequential case.
        return static_cast<std::size_t>(line * 0x9e3779b97f4a7c15ull) &
               (slots.size() - 1);
    }

    /** First slot in @p line's probe chain that holds it or is free. */
    Slot *
    probe(Addr line)
    {
        std::size_t i = ideal(line);
        while (slots[i].used && slots[i].line != line)
            i = (i + 1) & (slots.size() - 1);
        return &slots[i];
    }

    void grow();

    std::vector<Slot> slots;  ///< power-of-two capacity
    std::size_t numUsed = 0;
};

/** The load/store queue (a single age-ordered structure). */
class Lsq
{
  public:
    explicit Lsq(std::size_t capacity)
        : cap(capacity), pendingKnown(capacity),
          occupancy(stats::Distribution::evenBuckets(
              "occupancy", "entries occupied per cycle", 0, capacity, 16))
    {
        occupancy.countValuesUpTo(capacity);
        group.add(&occupancy);
        group.add(&nForwards);
        group.add(&nUnknownHolds);
        group.add(&nPartialHolds);
    }

    bool full() const { return resident >= cap; }
    bool empty() const { return resident == 0; }
    std::size_t size() const { return resident; }
    std::size_t capacity() const { return cap; }

    /** Insert a memory instruction at rename (program order). */
    void insert(DynInst *inst);

    /** Remove the entry for @p inst (at commit). A removed store
     *  releases the loads held on it, due this cycle (commit ticks
     *  before issue). */
    void remove(DynInst *inst);

    /** Remove the entry for @p inst, the youngest resident (branch
     *  recovery's ROB walk). A squashed store drops the loads held on
     *  it, which are younger and squashed with it. */
    void squash(DynInst *inst);

    /**
     * Disambiguation check for @p load at cycle @p now: find the
     * youngest older store with an unknown or conflicting address.
     */
    LoadCheck disambiguate(const DynInst *load, Cycle now);

    /** Hold-only convenience wrapper around disambiguate(). */
    LoadHold
    checkLoad(const DynInst *load, Cycle now)
    {
        return disambiguate(load, now).hold;
    }

    /**
     * The store @p inst computed its effective address (issue stage,
     * first execution): index it in the line table and release the
     * loads held on its unknown address at the address's visibility
     * cycle (inst->addrReadyCycle, set by the caller).
     */
    void onStoreAddrComputed(DynInst *inst);

    /**
     * Park @p load until @p blocker resolves: an UnknownAddress hold
     * releases when the blocker's address becomes visible, a
     * PartialOverlap hold when the blocker leaves the queue at commit.
     */
    void subscribeHold(DynInst *load, const DynInst *blocker,
                       LoadHold hold);

    /** Append the held loads whose release is due at @p now to @p out
     *  (the issue stage validates and sorts them). */
    void takeReadyHolds(Cycle now, std::vector<ReadyRef> &out);

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
    /** Disambiguation granularity: 16-byte lines, >= the largest
     *  access size, so an overlapping store always shares at least one
     *  line with the load and each access touches at most two lines. */
    static constexpr unsigned kLineShift = 4;

    /** A load parked on the store that blocks it. */
    struct HeldLoad
    {
        ReadyRef load;
        InstSeqNum blocker;  ///< sequence number of the blocking store
    };

    /** A released hold waiting for its wake cycle. */
    struct HoldRelease
    {
        ReadyRef load;
        Cycle wake;
    };

    static bool
    overlap(Addr a, unsigned aSize, Addr b, unsigned bSize)
    {
        return a < b + bSize && b < a + aSize;
    }

    /** First and last disambiguation lines touched by an access. */
    static Addr firstLine(const DynInst *m);
    static Addr lastLine(const DynInst *m);

    /** Erase @p seq from the unknown-address list if present. */
    void eraseUnknown(InstSeqNum seq);

    /** Drop the entries of pendingKnown whose addresses are visible
     *  before cycle @p until from the unknown list. */
    void flushKnown(Cycle until);

    /** Remove a store's line-table entries (commit or squash). */
    void eraseLineEntries(DynInst *store);

    /** Move the loads held on @p store to the pending-release list,
     *  in the order they were parked, with wake cycle @p wake. */
    void releaseHolds(const DynInst *store, Cycle wake);

    /** Drop the loads held on @p store without releasing them (squash:
     *  they die with their blocker). */
    void dropHolds(const DynInst *store);

    std::size_t cap;
    std::size_t resident = 0;
    /** Sequence number of the youngest instruction ever inserted: a
     *  squash never rolls the sequence back, so program order only
     *  needs this watermark. */
    InstSeqNum youngest = 0;

    /** Line address -> in-flight stores with computed addresses. */
    LineRefMap lineTable;
    /** Stores whose addresses are not visible yet, seq-ascending (the
     *  back is the unknown-address watermark). */
    std::vector<ReadyRef> unknownStores;
    /** FIFO of (store seq, visibility cycle): a computed address stays
     *  "unknown" until its cycle passes, then the unknown-list entry is
     *  flushed eagerly so queries never wade through stale entries.
     *  Each push first flushes every entry visible before its own
     *  cycle, so what remains are stores that computed their addresses
     *  in the same cycle, all resident: the queue's capacity bounds
     *  it. */
    CircularBuffer<std::pair<InstSeqNum, Cycle>> pendingKnown;

    /** Loads held on a store that has not resolved them yet, in the
     *  order they were parked. */
    std::vector<HeldLoad> heldLoads;
    /** Released holds waiting for their wake cycle. */
    std::vector<HoldRelease> pendingRelease;

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
