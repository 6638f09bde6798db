#include "core/stages/rename_stage.hh"

namespace vpr
{

void
RenameStage::tick()
{
    for (unsigned k = 0; k < s.cfg.renameWidth && s.fetch.hasInst(); ++k) {
        const FetchedInst &fi = s.fetch.peek();

        if (s.rob.full()) {
            ++stallRob;
            break;
        }
        if (s.iq.full()) {
            ++stallIq;
            break;
        }
        if (fi.si.isMem() && s.lsq.full()) {
            ++stallLsq;
            break;
        }

        unsigned nInt = 0, nFp = 0;
        if (fi.si.hasDest()) {
            if (fi.si.dest.regClass() == RegClass::Int)
                nInt = 1;
            else
                nFp = 1;
        }
        if (!s.renameMgr->canRename(nInt, nFp)) {
            ++stallReg;
            break;
        }

        FetchedInst f = s.fetch.pop();
        // Allocate the ROB entry first, then fill it in place — no
        // DynInst copy.
        DynInst *inst = s.rob.allocate();
        inst->si = f.si;
        inst->setSeq(++s.nextSeq);
        inst->wrongPath = f.wrongPath;
        inst->mispredictedBranch = f.mispredictedBranch;
        inst->setFetchCycle(f.fetchCycle);

        s.renameMgr->renameInst(*inst, s.curCycle);
        s.iq.insert(inst);
        if (inst->isMem())
            s.lsq.insert(inst);
    }
}

} // namespace vpr
