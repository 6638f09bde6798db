/**
 * @file
 * Instruction queue with broadcast wakeup and oldest-first selection.
 *
 * Entries are the Figure-2 IQ fields, held inside DynInst (Src/R bits).
 * Completion broadcasts a (class, wakeup tag, physical register) triple;
 * matching sources capture the physical register and set their R bit —
 * exactly the paper's mechanism where a virtual-physical tag is replaced
 * by the allocated physical register. The conventional scheme broadcasts
 * physical tags and the capture is the identity.
 *
 * Wakeup is implemented with per-(class, tag) wait lists: a source that
 * enters the queue unready is recorded under its tag, and a broadcast
 * touches exactly the recorded waiters instead of scanning the whole
 * queue. Waiters that left the queue in the meantime (issue, squash)
 * are detected lazily via their sequence number and residency flag —
 * the same stale-entry idiom the CompletionQueue uses.
 *
 * Selection is event-driven the same way: the queue *publishes* an
 * instruction onto its ready list at the exact moment its last
 * issue-relevant source operand wakes (or at insert, if it arrives
 * ready). IssueStage drains the ready list each cycle instead of
 * walking the whole queue; entries that fail structural checks are
 * re-parked by the stage on per-resource stall lists. Stale ready
 * entries (issued/squashed/slot-reused) are dropped lazily via the
 * seq + inIq check; the DynInst::inReadyQ flag guarantees each
 * resident instruction is published at most once.
 *
 * The queue keeps no list of its entries: residency is the hot pool's
 * inIq flag plus a resident count. Age order lives in the sequence
 * numbers the issue stage sorts its candidates by, and branch recovery
 * removes each squashed instruction from the ROB walk.
 *
 * An issued store parked on its data operand (Issued, with no
 * completion event yet) still has that operand recorded in its tag's
 * wait list, from its insert, so the broadcast that produces the data
 * wakes it too and hands it to the complete stage on the woken-stores
 * list.
 */

#ifndef VPR_CORE_IQ_HH
#define VPR_CORE_IQ_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "core/dyn_inst.hh"
#include "isa/reg.hh"

namespace vpr
{

/** The unified instruction queue. */
class InstQueue
{
  public:
    InstQueue(std::size_t capacity, InstHotPool &hotPool)
        : cap(capacity), hot(hotPool),
          occupancy(stats::Distribution::evenBuckets(
              "occupancy", "entries occupied per cycle", 0, capacity, 16))
    {
        occupancy.countValuesUpTo(capacity);
        group.add(&occupancy);
        group.add(&broadcasts);
        group.add(&woken);
    }

    bool full() const { return resident >= cap; }
    bool empty() const { return resident == 0; }
    std::size_t size() const { return resident; }
    std::size_t capacity() const { return cap; }

    /**
     * Insert @p inst: a newly renamed instruction, or one squashed back
     * at write-back. Unready sources are recorded in the wakeup wait
     * lists; an instruction whose issue operands are already ready is
     * published on the ready list.
     */
    void insert(DynInst *inst);

    /** Remove a resident entry: it issued, or branch recovery squashed
     *  it. O(1): clears its residency flags. */
    void
    remove(DynInst *inst)
    {
        VPR_ASSERT(inst->inIq(), "IQ remove: entry not present");
        inst->setInIq(false);
        inst->setInReadyQ(false);
        --resident;
    }

    /**
     * Broadcast a completed value: sources of class @p cls waiting on
     * @p tag become ready and capture @p physReg. An instruction whose
     * last issue-relevant source wakes is published on the ready list;
     * an issued store whose data operand wakes goes on the woken-stores
     * list.
     * @return number of source operands of resident entries woken.
     */
    unsigned wakeup(RegClass cls, std::uint16_t tag, std::uint16_t physReg);

    /**
     * Move this cycle's newly published ready instructions into
     * @p out (appended; publication order, not seq order — the issue
     * stage sorts its merged candidate list). Entries stay owned by the
     * scheduler (inReadyQ remains set) until they issue or vanish.
     */
    void
    drainReadyEvents(std::vector<ReadyRef> &out)
    {
        out.insert(out.end(), readyEvents.begin(), readyEvents.end());
        readyEvents.clear();
    }

    /**
     * Issued stores parked on their data operand whose data a broadcast
     * woke since the complete stage last cleared the list: they may now
     * complete. Publication order; entries of stores squashed since
     * are stale (seq + phase check).
     */
    std::vector<ReadyRef> &wokenStores() { return storesWoken; }

    /** Record this cycle's occupancy (called once per cycle). */
    void sampleOccupancy() { occupancy.sampleCounted(resident); }

    /** Register the "iq" stat group into the core's stats tree. */
    void regStats(stats::StatRegistry &r) { r.add(&group); }

  private:
    /** Initial capacity of a tag's wait list, reserved on first use:
     *  large enough that a typical burst of dependents never grows the
     *  list (zero steady-state allocations), small enough that even a
     *  full VP tag space stays under ~1 MB of wait-list storage. */
    static constexpr std::size_t kWaitListReserve = 64;

    /** One recorded waiter: source @p srcIdx of @p inst, valid while
     *  the instruction (identified by seq) is still queue-resident. */
    struct Waiter
    {
        DynInst *inst;
        InstSeqNum seq;
        HotIdx slot;
        std::uint8_t srcIdx;
    };

    /** Record every unready source of @p inst in the wait lists. */
    void addWaiters(DynInst *inst);

    /** Publish @p inst on the ready list if it is issue-ready and not
     *  already owned by the scheduler. */
    void
    maybePublishReady(DynInst *inst)
    {
        if (inst->inReadyQ() || !inst->issueOperandsReady())
            return;
        inst->setInReadyQ(true);
        readyEvents.push_back(inst->ref());
    }

    std::size_t cap;
    InstHotPool &hot;
    std::size_t resident = 0;  ///< entries with the inIq flag set
    /** Wait lists per register class, indexed by tag (grown on use). */
    std::vector<std::vector<Waiter>> waitLists[kNumRegClasses];
    /** Instructions published since the last drain (event-driven
     *  selection). */
    std::vector<ReadyRef> readyEvents;
    /** Parked stores woken since the complete stage last cleared it. */
    std::vector<ReadyRef> storesWoken;

    stats::StatGroup group{"iq"};
    stats::Distribution occupancy;
    stats::Scalar broadcasts{"wakeup_broadcasts",
                             "completion wakeup broadcasts"};
    stats::Scalar woken{"operands_woken",
                        "source operands woken by broadcasts"};
};

} // namespace vpr

#endif // VPR_CORE_IQ_HH
