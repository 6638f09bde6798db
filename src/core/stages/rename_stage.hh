/**
 * @file
 * Rename stage: drains the FetchUnit's buffer into ROB/IQ/LSQ through
 * the RenameManager, stalling on full structures or an empty free list.
 */

#ifndef VPR_CORE_STAGES_RENAME_STAGE_HH
#define VPR_CORE_STAGES_RENAME_STAGE_HH

#include "common/stats.hh"
#include "core/stages/pipeline_state.hh"

namespace vpr
{

/** The rename/dispatch stage. */
class RenameStage
{
  public:
    explicit RenameStage(PipelineState &state) : s(state)
    {
        group.add(&stallReg);
        group.add(&stallRob);
        group.add(&stallIq);
        group.add(&stallLsq);
        s.statsTree.add(&group);
    }

    void tick();

  private:
    PipelineState &s;

    stats::StatGroup group{"rename"};
    stats::Scalar stallReg{"stall_reg", "rename stalls: no free register"};
    stats::Scalar stallRob{"stall_rob", "rename stalls: ROB full"};
    stats::Scalar stallIq{"stall_iq", "rename stalls: IQ full"};
    stats::Scalar stallLsq{"stall_lsq", "rename stalls: LSQ full"};
};

} // namespace vpr

#endif // VPR_CORE_STAGES_RENAME_STAGE_HH
