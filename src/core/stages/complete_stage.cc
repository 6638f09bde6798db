#include "core/stages/complete_stage.hh"

#include "common/logging.hh"
#include "isa/op_class.hh"

namespace vpr
{

CompleteStage::CompleteStage(PipelineState &state,
                             CompletionQueue &completionQueue)
    : s(state), completions(completionQueue)
{
    group.add(&wbRejections);
    issueToComplete.reserve(kNumOpClasses);
    for (std::size_t i = 0; i < kNumOpClasses; ++i) {
        issueToComplete.push_back(stats::Distribution::evenBuckets(
            std::string("issue_to_complete.") +
                opClassName(static_cast<OpClass>(i)),
            "cycles from issue to completion", 0, 64, 16));
        group.add(&issueToComplete.back());
    }
    s.statsTree.add(&group);
}

void
CompleteStage::tick()
{
    const Cycle now = s.curCycle;

    while (completions.hasDue(now)) {
        CompletionEvent ev = completions.popDue();
        VPR_ASSERT(ev.when == now, "completion event missed: when=",
                   ev.when, " now=", now);

        // Stale events: the instruction was squashed (slot possibly
        // reused by a younger instruction). The check reads only the
        // packed hot arrays via the recorded slot.
        if (!s.hot.liveInPhase(ev.slot, ev.seq, InstPhase::Issued))
            continue;
        DynInst *inst = ev.inst;

        CompleteResult res = s.renameMgr->complete(*inst, now);
        if (!res.ok) {
            // VP write-back allocation denied a register: squash back
            // to the instruction queue and re-execute (paper §3.3).
            ++wbRejections;
            inst->setPhase(InstPhase::Renamed);
            s.iq.insert(inst);
            continue;
        }

        inst->setPhase(InstPhase::Completed);
        inst->setCompleteCycle(now);
        issueToComplete[static_cast<std::size_t>(inst->si.op)].sample(
            now - inst->issueCycle());

        if (inst->hasDest()) {
            VPR_ASSERT(inst->physReg != kNoReg,
                       "completed without a physical register");
            // Also wakes issued stores parked on this value.
            s.iq.wakeup(inst->destClass(), inst->wakeupTag,
                        inst->physReg);
        }

        if (inst->mispredictedBranch) {
            // Branch recovery: the recovery walk over the shared
            // structures, then the parked stores of squashed
            // instructions, then the fetch redirect, which flushes the
            // fetch buffer before rename and fetch tick this cycle.
            // No other stage holds state that a squash must undo.
            s.squashYoungerThan(inst->seq());
            completions.squashYoungerThan(inst->seq());
            s.fetch.resolveBranch(now);
        }
    }

    // Parked stores whose data arrived with this cycle's broadcasts
    // complete now that both address and data are known.
    auto &woken = s.iq.wokenStores();
    for (const ReadyRef &ref : woken) {
        if (!s.hot.liveInPhase(ref.slot, ref.seq, InstPhase::Issued))
            continue;  // squashed by a later recovery this cycle
        const Cycle ready = ref.inst->addrReadyCycle;
        completions.schedule(now + 1 > ready ? now + 1 : ready, ref.seq,
                             ref.inst);
        completions.unparkStore(ref.seq);
    }
    woken.clear();
}

} // namespace vpr
