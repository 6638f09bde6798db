/**
 * @file
 * The out-of-order core: an 8-wide dynamically scheduled processor with
 * precise exceptions, matching section 4.1 of the paper.
 *
 * Core is a thin composition root. The pipeline logic lives in five
 * stage classes under core/stages/ behind the common Stage interface;
 * Core owns the shared PipelineState, the inter-stage latches, and the
 * stage graph, and ticks the stages back to front (one call to tick() =
 * one cycle) so same-cycle producer→consumer wakeups behave like a
 * bypass network:
 *
 *   commit  — up to commitWidth in-order retires; stores write the
 *             cache; the renamer frees the previous mapping.
 *   complete— completion events fire: write-back allocation happens
 *             here (VP write-back policy may squash back to the IQ);
 *             values broadcast to the IQ; mispredicted branches trigger
 *             the recovery walk and fetch redirect.
 *   issue   — oldest-first select over ready IQ entries constrained by
 *             FUs, register-file read ports, cache ports, memory
 *             disambiguation and the renamer's issue gate.
 *   rename  — drains the fetch buffer into ROB/IQ/LSQ through the
 *             RenameManager.
 *   fetch   — fills the fetch buffer from the trace.
 */

#ifndef VPR_CORE_CORE_HH
#define VPR_CORE_CORE_HH

#include <array>
#include <memory>

#include "core/core_config.hh"
#include "core/stages/commit_stage.hh"
#include "core/stages/complete_stage.hh"
#include "core/stages/fetch_stage.hh"
#include "core/stages/issue_stage.hh"
#include "core/stages/latches.hh"
#include "core/stages/pipeline_state.hh"
#include "core/stages/rename_stage.hh"
#include "core/stages/stage.hh"
#include "rename/factory.hh"

namespace vpr
{

/** One simulated out-of-order core: state + latches + stage graph. */
class Core : public SquashCoordinator
{
  public:
    Core(TraceStream &stream, const CoreConfig &config);

    /** Advance one cycle. @return false once the pipeline has drained. */
    bool tick();

    /** Run until @p maxCommitted instructions committed (or done). */
    void runUntilCommitted(std::uint64_t maxCommitted);

    /**
     * Fast-forward @p n instructions without detailed simulation: drain
     * the pipeline to a quiescent point, then retire instructions
     * straight off the trace. With @p warm (SMARTS functional warming)
     * every branch trains the BHT and every memory op probes the cache,
     * so long-lived microarchitectural state tracks the full run; the
     * clock advances one cycle per instruction to keep the cache's
     * timestamp-ordered machinery moving. Without @p warm the trace
     * position just skips ahead. Fast-forwarded instructions count in
     * functionallyRetired(), never in committedInsts().
     * @return instructions actually fast-forwarded (short at trace end).
     */
    std::uint64_t fastForward(std::uint64_t n, bool warm = true);

    /** Instructions retired through fastForward() so far. */
    std::uint64_t functionallyRetired() const { return ffRetired; }

    Cycle cycle() const { return state.curCycle; }
    std::uint64_t committedInsts() const { return commit.committedTotal(); }
    bool done() const;

    /** Start a measurement interval across the whole stats tree. */
    void resetStats();

    /**
     * Walk the core's stats tree into @p v: every component's and
     * stage's StatGroup, in registration order, derived values brought
     * up to date first. This is the single export path — a stat added
     * to any component appears in every consumer with no glue.
     */
    void visitStats(stats::StatVisitor &v);

    /** True if a completion event for @p seq is pending (tests/debug). */
    bool
    hasPendingEvent(InstSeqNum seq) const
    {
        return completions.pendingFor(seq);
    }

    /** SquashCoordinator: recovery walk over the shared structures,
     *  then fan the squash out to every stage's private state. */
    void squashYoungerThan(InstSeqNum youngestKept) override;

    /** The stage graph in tick order, back (commit) to front (fetch). */
    const std::array<Stage *, 5> &stages() const { return stageGraph; }

    /** Component access (tests / detailed reporting). @{ */
    const Rob &rob() const { return state.rob; }
    const InstQueue &iq() const { return state.iq; }
    const Lsq &lsq() const { return state.lsq; }
    const NonBlockingCache &cache() const { return state.cache; }
    const FetchUnit &fetchUnit() const { return state.fetch; }
    const RenameManager &renamer() const { return *state.renameMgr; }
    RenameManager &renamer() { return *state.renameMgr; }
    const FuPool &fuPool() const { return state.fus; }
    const CoreConfig &config() const { return state.cfg; }
    /** @} */

  private:
    /** No in-flight work anywhere in the stage graph or latches. */
    bool quiescent() const;

    /** Tick with fetch paused until the pipeline is empty. */
    void drain();

    PipelineState state;
    std::uint64_t ffRetired = 0;

    // Inter-stage latches/ports (see stages/latches.hh).
    CompletionQueue completions;
    FetchBufferPort fetchBuffer;
    FetchRedirectPort fetchRedirect;

    // The stages, back to front.
    CommitStage commit;
    CompleteStage complete;
    IssueStage issue;
    RenameStage rename;
    FetchStage fetchStage;
    std::array<Stage *, 5> stageGraph;

    // Cross-stage derived metrics (IPC needs commit + the clock); the
    // composition root is the one place that sees both.
    stats::StatGroup derivedGroup{"core"};
    stats::Real ipcStat{"ipc", "committed instructions per cycle"};
    stats::Real execPerCommitStat{
        "exec_per_commit", "executions per committed instruction"};
};

} // namespace vpr

#endif // VPR_CORE_CORE_HH
