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
            s.iq.wakeup(inst->destClass(), inst->wakeupTag,
                        inst->physReg);
            // Issued stores parked on their data operand listen too.
            for (auto &ref : completions.parkedStores()) {
                if (!s.hot.live(ref.slot, ref.seq))
                    continue;
                auto &src = ref.inst->src[0];
                if (src.valid && !src.ready &&
                    src.cls == inst->destClass() &&
                    src.tag == inst->wakeupTag) {
                    src.tag = inst->physReg;
                    src.ready = true;
                }
            }
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

    // Stores whose data arrived (possibly via this cycle's broadcasts)
    // complete now that both address and data are known.
    auto &parked = completions.parkedStores();
    std::size_t keep = 0;
    for (auto &ref : parked) {
        if (!s.hot.liveInPhase(ref.slot, ref.seq, InstPhase::Issued))
            continue;  // squashed
        DynInst *inst = ref.inst;
        if (inst->operandsReady()) {
            Cycle when = now + 1 > inst->addrReadyCycle
                ? now + 1
                : inst->addrReadyCycle;
            completions.schedule(when, ref.seq, inst);
        } else {
            parked[keep++] = ref;
        }
    }
    parked.resize(keep);
}

} // namespace vpr
