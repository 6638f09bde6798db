/**
 * @file
 * Packed hot state of in-flight instructions.
 *
 * The cycle loop's staleness checks and the commit/complete walks read a
 * handful of scalars per instruction — lifecycle phase, sequence number,
 * scheduler-residency flags, the pipeline cycle stamps — and nothing
 * else. Keeping those inside DynInst means every check drags a whole
 * ~150-byte instruction record into the cache to read one byte.
 *
 * InstHotPool splits that state into parallel arrays indexed by ROB
 * slot (a HotIdx handle): 128 in-flight instructions fit their phases
 * in two cache lines and their sequence numbers in sixteen, so the hot
 * walks touch dense, L1-resident memory. Scheduler records (ReadyRef,
 * CompletionQueue events, IQ wait-list entries) carry the handle so a
 * staleness check never touches the DynInst at all; DynInst keeps the
 * cold rename/ISA fields plus accessors that forward here, so call
 * sites stay readable.
 *
 * Slot reuse: a ROB slot freed by the recovery walk is handed to a
 * younger instruction. Rob::allocate() calls reset() on the slot, which
 * reinitialises *every* array element — the lazy-staleness idiom
 * (recorded seq != pool seq) depends on it.
 */

#ifndef VPR_CORE_INST_HOT_HH
#define VPR_CORE_INST_HOT_HH

#include <cstdint>
#include <limits>
#include <vector>

#include "common/types.hh"

namespace vpr
{

/** Lifecycle phase of a dynamic instruction. */
enum class InstPhase : std::uint8_t
{
    Renamed,    ///< dispatched to IQ/ROB, waiting for operands
    Issued,     ///< executing on a functional unit
    Completed,  ///< result produced (and register allocated, if any)
    Committed,  ///< retired
    Squashed    ///< removed by branch recovery (slot may be reused)
};

/** Why a load cannot begin its memory access yet (LSQ disambiguation).
 *  Lives here rather than in lsq.hh because each load carries its most
 *  recent hold state in the hot pool. */
enum class LoadHold : std::uint8_t
{
    Ready,          ///< may access the cache
    Forward,        ///< older matching store will forward its data
    UnknownAddress, ///< an older store's address is not known yet
    PartialOverlap  ///< overlaps an older store but cannot forward
};

/** Handle of one in-flight instruction's hot-state row (its ROB slot). */
using HotIdx = std::uint32_t;

/** Sentinel for "not bound to a pool row". */
inline constexpr HotIdx kNoHotIdx =
    std::numeric_limits<std::uint32_t>::max();

/** The packed per-slot hot state (structure-of-arrays). */
class InstHotPool
{
  public:
    explicit InstHotPool(std::size_t capacity)
        : seqA(capacity), phaseA(capacity), lastHoldA(capacity),
          inIqA(capacity), inReadyQA(capacity), fetchA(capacity),
          renameA(capacity), issueA(capacity), completeA(capacity),
          commitA(capacity)
    {
        for (HotIdx i = 0; i < capacity; ++i)
            reset(i);
    }

    std::size_t capacity() const { return seqA.size(); }

    /** Fully reinitialise one slot (allocation / slot reuse). */
    void
    reset(HotIdx i)
    {
        seqA[i] = 0;
        phaseA[i] = static_cast<std::uint8_t>(InstPhase::Renamed);
        lastHoldA[i] = static_cast<std::uint8_t>(LoadHold::Ready);
        inIqA[i] = 0;
        inReadyQA[i] = 0;
        fetchA[i] = kNoCycle;
        renameA[i] = kNoCycle;
        issueA[i] = kNoCycle;
        completeA[i] = kNoCycle;
        commitA[i] = kNoCycle;
    }

    /** Field accessors (hot loops may also index the arrays directly
     *  through these; everything is inline, no bounds checks). @{ */
    InstSeqNum seqOf(HotIdx i) const { return seqA[i]; }
    void setSeq(HotIdx i, InstSeqNum s) { seqA[i] = s; }

    InstPhase
    phaseOf(HotIdx i) const
    {
        return static_cast<InstPhase>(phaseA[i]);
    }
    void
    setPhase(HotIdx i, InstPhase p)
    {
        phaseA[i] = static_cast<std::uint8_t>(p);
    }

    LoadHold
    lastHoldOf(HotIdx i) const
    {
        return static_cast<LoadHold>(lastHoldA[i]);
    }
    void
    setLastHold(HotIdx i, LoadHold h)
    {
        lastHoldA[i] = static_cast<std::uint8_t>(h);
    }

    bool isInIq(HotIdx i) const { return inIqA[i] != 0; }
    void setInIq(HotIdx i, bool b) { inIqA[i] = b ? 1 : 0; }

    bool isInReadyQ(HotIdx i) const { return inReadyQA[i] != 0; }
    void setInReadyQ(HotIdx i, bool b) { inReadyQA[i] = b ? 1 : 0; }

    Cycle fetchCycleOf(HotIdx i) const { return fetchA[i]; }
    void setFetchCycle(HotIdx i, Cycle c) { fetchA[i] = c; }
    Cycle renameCycleOf(HotIdx i) const { return renameA[i]; }
    void setRenameCycle(HotIdx i, Cycle c) { renameA[i] = c; }
    Cycle issueCycleOf(HotIdx i) const { return issueA[i]; }
    void setIssueCycle(HotIdx i, Cycle c) { issueA[i] = c; }
    Cycle completeCycleOf(HotIdx i) const { return completeA[i]; }
    void setCompleteCycle(HotIdx i, Cycle c) { completeA[i] = c; }
    Cycle commitCycleOf(HotIdx i) const { return commitA[i]; }
    void setCommitCycle(HotIdx i, Cycle c) { commitA[i] = c; }
    /** @} */

    /** The lazy-staleness check: does slot @p i still hold the
     *  instruction that recorded @p seq? (A reused slot fails this
     *  because reset() zeroes the sequence number and real sequence
     *  numbers start at 1.) */
    bool live(HotIdx i, InstSeqNum seq) const { return seqA[i] == seq; }

    /** live() plus a phase requirement — the common two-field check of
     *  the completion and issue paths, touching only packed arrays. */
    bool
    liveInPhase(HotIdx i, InstSeqNum seq, InstPhase p) const
    {
        return seqA[i] == seq &&
               phaseA[i] == static_cast<std::uint8_t>(p);
    }

  private:
    std::vector<InstSeqNum> seqA;
    std::vector<std::uint8_t> phaseA;
    std::vector<std::uint8_t> lastHoldA;
    std::vector<std::uint8_t> inIqA;
    std::vector<std::uint8_t> inReadyQA;
    std::vector<Cycle> fetchA;
    std::vector<Cycle> renameA;
    std::vector<Cycle> issueA;
    std::vector<Cycle> completeA;
    std::vector<Cycle> commitA;
};

} // namespace vpr

#endif // VPR_CORE_INST_HOT_HH
