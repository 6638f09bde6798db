/**
 * @file
 * Commit stage: up to commitWidth in-order retires per cycle; stores
 * write the data cache (needing a cache port and an unblocked cache);
 * the renamer frees the previous mapping of each retired destination.
 */

#ifndef VPR_CORE_STAGES_COMMIT_STAGE_HH
#define VPR_CORE_STAGES_COMMIT_STAGE_HH

#include "common/stats.hh"
#include "core/stages/pipeline_state.hh"
#include "core/stages/stage.hh"

namespace vpr
{

/** The commit/retire stage. */
class CommitStage : public Stage
{
  public:
    explicit CommitStage(PipelineState &state) : s(state)
    {
        group.add(&committed);
        group.add(&committedExecutions);
        group.add(&storeStalls);
        s.statsTree.add(&group);
    }

    const char *name() const override { return "commit"; }

    void tick() override;

    void
    squash(InstSeqNum) override
    {
        // Commit only ever touches the ROB head, which is never younger
        // than a resolving branch; nothing to recover.
    }

    /** Committed instructions since construction (monotonic; drives the
     *  run-until protocol across stat resets). */
    std::uint64_t committedTotal() const { return nCommittedTotal; }

    /** Interval counters (reset through the stats tree). @{ */
    std::uint64_t committedInterval() const { return committed.value(); }
    std::uint64_t
    committedExecutionsInterval() const
    {
        return committedExecutions.value();
    }
    /** @} */

  private:
    PipelineState &s;
    std::uint64_t nCommittedTotal = 0;

    stats::StatGroup group{"commit"};
    stats::Scalar committed{"committed", "committed instructions"};
    stats::Scalar committedExecutions{
        "committed_executions", "issues of committed instructions"};
    stats::Scalar storeStalls{"store_stalls",
                              "commit stalls on store write"};
};

} // namespace vpr

#endif // VPR_CORE_STAGES_COMMIT_STAGE_HH
