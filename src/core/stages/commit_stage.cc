#include "core/stages/commit_stage.hh"

#include "common/logging.hh"

namespace vpr
{

void
CommitStage::tick()
{
    const Cycle now = s.curCycle;

    for (unsigned k = 0; k < s.cfg.commitWidth && !s.rob.empty(); ++k) {
        DynInst &head = s.rob.head();
        if (head.phase() != InstPhase::Completed)
            break;
        VPR_ASSERT(!head.wrongPath, "committing a wrong-path instruction");

        if (head.isStore()) {
            // Stores update the data cache at commit. They need a cache
            // port and a non-blocked cache; otherwise commit retries.
            if (!s.cachePortSched.tryClaim(now)) {
                ++storeStalls;
                break;
            }
            auto res = s.cache.access(head.si.effAddr, true, now);
            if (res.outcome == CacheOutcome::Blocked) {
                ++storeStalls;
                break;
            }
            s.lsq.remove(&head);
        } else if (head.isLoad()) {
            s.lsq.remove(&head);
        }

        s.renameMgr->commitInst(head, now);
        head.setPhase(InstPhase::Committed);
        head.setCommitCycle(now);
        ++committed;
        ++nCommittedTotal;
        committedExecutions += head.executions;
        s.lastCommitCycle = now;
        s.rob.commitHead();
    }
}

} // namespace vpr
