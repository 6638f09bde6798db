/**
 * @file
 * Issue stage: oldest-first selection over ready IQ entries constrained
 * by functional units, register-file read ports, cache ports, memory
 * disambiguation and the renamer's issue gate. Completion events it
 * schedules land in the CompletionQueue latch consumed by the complete
 * stage.
 *
 * Selection is event-driven: the stage merges the IQ's newly published
 * ready instructions with its own parked entries (per-FU stall lists
 * gated on unit availability, per-class lists of the renamer's issue
 * gate refusals gated on the gate's bound, and a retry list for the
 * per-cycle refusals: disambiguation holds, read ports and the cache),
 * insertion-sorts the merged candidates by age and attempts them
 * oldest first — the whole instruction queue is never walked. Entries
 * that are refused are re-parked on the matching list.
 */

#ifndef VPR_CORE_STAGES_ISSUE_STAGE_HH
#define VPR_CORE_STAGES_ISSUE_STAGE_HH

#include <array>
#include <vector>

#include "common/stats.hh"
#include "core/stages/latches.hh"
#include "core/stages/pipeline_state.hh"

namespace vpr
{

/** The issue/execute stage. */
class IssueStage
{
  public:
    IssueStage(PipelineState &state, CompletionQueue &completionQueue);

    /** Parked entries of squashed instructions go stale through the
     *  seq + inIq check and are dropped at the next merge. */
    void tick();

  private:
    /** Why an issue attempt did not issue. */
    enum class Outcome : std::uint8_t
    {
        Issued,    ///< side effects committed, instruction left the IQ
        NoFu,      ///< all functional units of the class busy
        Gate,      ///< the renamer's issue gate refused a register
        Resource,  ///< per-cycle refusal (hold, read ports, cache)
    };

    /** Try to issue one instruction (all structural checks in a fixed
     *  order); commits the side effects only when it issues. */
    Outcome tryIssueOne(DynInst *inst);

    PipelineState &s;
    CompletionQueue &completions;

    /** This cycle's merged, age-sorted candidates (member to reuse the
     *  allocation across cycles). */
    std::vector<ReadyRef> cand;
    /**
     * Ready entries refused for this cycle: loads the LSQ holds, and
     * entries short of a read port, a cache port or MSHR space. Each is
     * retried next cycle. A held load is retried until it passes, and
     * it passes in the cycle its blocker (the youngest older store
     * whose address is unknown or overlaps the load) resolves:
     *
     * - The verdict cannot change before then. The stores between the
     *   blocker and the load have visible, disjoint addresses, and they
     *   keep them; stores renamed later are younger than the load; and
     *   stores older than the blocker cannot decide while it does,
     *   because the LSQ's scan stops at the youngest decisive store.
     * - So a retry first gets past the blocker in the blocker's
     *   address-visibility cycle for an unknown address, and in its
     *   commit cycle for a partial overlap (commit ticks before issue).
     * - A refused retry changes nothing: a check leaves the LSQ as it
     *   was, a refusal takes no issue slot, and hold statistics count
     *   transitions through DynInst::lastHold, not attempts.
     */
    std::vector<ReadyRef> retryQ;
    /** Ready entries stalled on a busy FU class; merged back the first
     *  cycle a unit is available again (until then every attempt
     *  would fail the same availability check). */
    std::array<std::vector<ReadyRef>, kNumFUTypes> fuStallQ;
    /**
     * Destination writers the renamer's issue gate refused, by
     * destination class; merged back only once their sequence number
     * is below RenameManager::issueGateBound. Skipping the attempts in
     * between moves no record, because the gate only tightens within a
     * cycle and a refused attempt has no side effect:
     *
     * - The VP issue gate (ReservationTracker::mayAllocate) admits X of
     *   class c iff F > 0 && (X reserved || F > NRR - Used), with F the
     *   free physical registers of c.
     * - Inside one issue stage only allocations change F and Used. A
     *   reserved allocation lowers F and raises Used by one, leaving
     *   F - (NRR - Used) unchanged; a non-reserved one lowers F only.
     *   The reserved set (the oldest min(NRR, n) destination writers)
     *   moves only at rename, commit and squash, never inside issue.
     *   So the bound read at the merge only falls until the stage
     *   ends, and an instruction at or above it would be refused at
     *   every attempt this cycle.
     * - A refused attempt changes nothing: a load that reaches the gate
     *   has already disambiguated Ready or Forward and can never be
     *   held later (older stores' addresses only become known, and
     *   stores leave only in order); the lazy MSHR fill retirement its
     *   cache check triggers happens anyway, in the same order, at the
     *   next cache access (fills retire in allocation order, which is
     *   fill-cycle order because bus start times never decrease); and
     *   the renamer's refusal count is not exported.
     */
    std::array<std::vector<ReadyRef>, kNumRegClasses> gateQ;

    stats::StatGroup group{"issue"};
    stats::Scalar issued{"issued", "instructions issued"};
    stats::Counter2D byClass;
    /** Fetch-to-first-issue latency per op class (satellite of the
     *  event-driven scheduler work; re-executions are not resampled). */
    std::vector<stats::Distribution> fetchToIssue;
};

} // namespace vpr

#endif // VPR_CORE_STAGES_ISSUE_STAGE_HH
