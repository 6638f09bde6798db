/**
 * @file
 * The shared microarchitectural state of one core.
 *
 * PipelineState owns the structures that are genuinely shared between
 * stages in a real machine — ROB, IQ, LSQ, cache, functional units,
 * register/cache ports, the renamer — plus the global cycle counter and
 * sequence-number allocator, and the FetchUnit whose buffer rename
 * drains. Stages receive a reference to it; the one stage-to-stage
 * signal, issue to complete, travels through the CompletionQueue latch
 * (latches.hh) instead.
 */

#ifndef VPR_CORE_STAGES_PIPELINE_STATE_HH
#define VPR_CORE_STAGES_PIPELINE_STATE_HH

#include <memory>

#include "common/stats.hh"
#include "core/core_config.hh"
#include "core/iq.hh"
#include "core/lsq.hh"
#include "core/regfile_ports.hh"
#include "core/rob.hh"

namespace vpr
{

/** Shared structures and clocks of one core's pipeline. */
struct PipelineState
{
    PipelineState(TraceStream &stream, const CoreConfig &config);

    /** Per-cycle bookkeeping common to every stage; advances the clock. */
    void beginCycle();

    /** End-of-cycle occupancy sampling across the shared structures. */
    void sampleStats();

    /** Begin a measurement interval across the whole stats tree. */
    void resetStats();

    /**
     * Branch recovery over the shared structures: walk the ROB
     * youngest-first down to @p youngestKept, removing each instruction
     * still in the IQ and each memory instruction from the LSQ, and
     * undoing each rename (the paper's recovery walk). The ROB is the
     * only program-order list, so this walk is all a squash undoes.
     */
    void squashYoungerThan(InstSeqNum youngestKept);

    CoreConfig cfg;
    std::unique_ptr<RenameManager> renameMgr;
    FetchUnit fetch;
    /** Packed hot state of all in-flight instructions, indexed by ROB
     *  slot (inst_hot.hh). Declared before the structures that index
     *  into it. */
    InstHotPool hot;
    Rob rob;
    InstQueue iq;
    Lsq lsq;
    NonBlockingCache cache;
    FuPool fus;
    RegFilePorts regPorts;
    PortSchedule cachePortSched;

    /**
     * The core's stats tree. Every component and stage registers its
     * StatGroup(s) here (structures in this constructor, stages in
     * theirs); exporters reach everything through one
     * statsTree.visit() walk.
     */
    stats::StatRegistry statsTree;

    Cycle curCycle = 0;
    InstSeqNum nextSeq = 0;
    Cycle lastCommitCycle = 0;

    /** Cycles elapsed in the current measurement interval. */
    Cycle intervalCycles() const { return curCycle - statBaseCycle; }

  private:
    stats::StatGroup coreGroup{"core"};
    stats::Scalar cyclesStat{"cycles", "simulated cycles in the interval"};
    stats::Scalar squashedStat{"squashed", "instructions squashed"};
    Cycle statBaseCycle = 0;
};

} // namespace vpr

#endif // VPR_CORE_STAGES_PIPELINE_STATE_HH
