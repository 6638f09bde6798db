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
 * gate refusals gated on the gate's bound, a retry list for the
 * per-cycle resources, and the loads the LSQ releases from their holds),
 * insertion-sorts the merged candidates by age and attempts them
 * oldest first — the whole instruction queue is never walked. Entries
 * that fail a structural check are re-parked on the matching list;
 * holds park inside the LSQ until the blocking store resolves.
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
        Hold,      ///< LSQ disambiguation hold (blocker identifies why)
        NoFu,      ///< all functional units of the class busy
        Gate,      ///< the renamer's issue gate refused a register
        Resource,  ///< per-cycle resource (read ports, cache)
    };

    /** One attempt's verdict, with the LSQ blocker for holds. */
    struct Attempt
    {
        Outcome outcome;
        LoadHold hold = LoadHold::Ready;
        const DynInst *blocker = nullptr;
    };

    /** Try to issue one instruction (all structural checks in a fixed
     *  order); commits the side effects only when it issues. */
    Attempt tryIssueOne(DynInst *inst);

    PipelineState &s;
    CompletionQueue &completions;

    /** This cycle's merged, age-sorted candidates (member to reuse the
     *  allocation across cycles). */
    std::vector<ReadyRef> cand;
    /** Ready entries that failed a per-cycle resource; retried next
     *  cycle. */
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
     *   stores leave only in order); the lazy MSHR fill retirement and
     *   LSQ address-visibility flush its checks trigger happen anyway,
     *   in the same order, at the next cache or LSQ access (fills
     *   retire in allocation order, which is fill-cycle order because
     *   bus start times never decrease); and the renamer's refusal
     *   count is not exported.
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
