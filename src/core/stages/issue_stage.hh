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
 * gated on unit availability, a retry list for the per-cycle resources,
 * and the LSQ's released hold subscriptions), sorts the merged
 * candidates by age and attempts them oldest first — the whole
 * instruction queue is never walked. Entries that fail a structural
 * check are re-parked on the matching list; holds park inside the LSQ
 * until the blocking store resolves.
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
        Resource,  ///< per-cycle resource (ports, renamer gate, cache)
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

    stats::StatGroup group{"issue"};
    stats::Scalar issued{"issued", "instructions issued"};
    stats::Counter2D byClass;
    /** Fetch-to-first-issue latency per op class (satellite of the
     *  event-driven scheduler work; re-executions are not resampled). */
    std::vector<stats::Distribution> fetchToIssue;
};

} // namespace vpr

#endif // VPR_CORE_STAGES_ISSUE_STAGE_HH
