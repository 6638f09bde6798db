/**
 * @file
 * Complete (write-back) stage: drains due completion events from the
 * CompletionQueue. Write-back register allocation happens here — the VP
 * write-back policy may refuse and squash the instruction back to the
 * IQ; values broadcast to the IQ; a mispredicted branch runs branch
 * recovery: the ROB walk over the shared structures and the fetch
 * redirect. Parked stores whose data a broadcast woke are scheduled
 * here too.
 */

#ifndef VPR_CORE_STAGES_COMPLETE_STAGE_HH
#define VPR_CORE_STAGES_COMPLETE_STAGE_HH

#include <vector>

#include "common/stats.hh"
#include "core/stages/latches.hh"
#include "core/stages/pipeline_state.hh"

namespace vpr
{

/** The completion/write-back stage. */
class CompleteStage
{
  public:
    CompleteStage(PipelineState &state, CompletionQueue &completionQueue);

    void tick();

  private:
    PipelineState &s;
    CompletionQueue &completions;

    stats::StatGroup group{"complete"};
    stats::Scalar wbRejections{"wb_rejections",
                               "write-back allocation denials (VP)"};
    /** Issue-to-completion latency per op class (the final, successful
     *  execution of write-back-squashed instructions). */
    std::vector<stats::Distribution> issueToComplete;
};

} // namespace vpr

#endif // VPR_CORE_STAGES_COMPLETE_STAGE_HH
