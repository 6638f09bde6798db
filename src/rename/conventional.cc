#include "rename/conventional.hh"

#include "common/logging.hh"

namespace vpr
{

ConventionalRename::ConventionalRename(const RenameConfig &config)
    : RenameManager(config)
{
    for (std::size_t c = 0; c < kNumRegClasses; ++c) {
        mapTable[c].assign(kNumLogicalRegs, 0);
        ready[c].assign(cfg.numPhysRegs, false);
        // Architected state: logical register i lives in physical i.
        for (std::uint16_t i = 0; i < kNumLogicalRegs; ++i) {
            mapTable[c][i] = i;
            ready[c][i] = true;
        }
        freeList[c].reserve(cfg.numPhysRegs);
        for (std::uint16_t p = cfg.numPhysRegs; p-- > kNumLogicalRegs;)
            freeList[c].push_back(p);
        // Pressure accounting: the architected registers are live.
        for (std::uint16_t i = 0; i < kNumLogicalRegs; ++i)
            pressureTrk[c].onAlloc(i, 0);
    }
}

void
ConventionalRename::tick(Cycle)
{
    // Conventional frees are visible in the same cycle; nothing to do.
}

bool
ConventionalRename::canRename(unsigned nIntDests, unsigned nFpDests) const
{
    return freeList[classIdx(RegClass::Int)].size() >= nIntDests &&
           freeList[classIdx(RegClass::Float)].size() >= nFpDests;
}

PhysRegId
ConventionalRename::allocReg(RegClass cls, Cycle now)
{
    auto &fl = freeList[classIdx(cls)];
    VPR_ASSERT(!fl.empty(), "conventional: free list empty");
    PhysRegId reg = fl.back();
    fl.pop_back();
    pressureTrk[classIdx(cls)].onAlloc(reg, now);
    return reg;
}

void
ConventionalRename::freeReg(RegClass cls, PhysRegId reg, Cycle now)
{
    ready[classIdx(cls)][reg] = false;
    freeList[classIdx(cls)].push_back(reg);
    pressureTrk[classIdx(cls)].onFree(reg, now);
}

void
ConventionalRename::renameInst(DynInst &inst, Cycle now)
{
    // Sources first: they must see the mappings before this
    // instruction's own destination is remapped (handles "add r1,r1,r2").
    for (std::size_t i = 0; i < kMaxSrcRegs; ++i) {
        const RegId &sr = inst.si.src[i];
        if (!sr.valid())
            continue;
        std::size_t c = classIdx(sr.regClass());
        PhysRegId phys = mapTable[c][sr.index()];
        inst.src[i].valid = true;
        inst.src[i].cls = sr.regClass();
        inst.src[i].tag = phys;
        inst.src[i].ready = ready[c][phys];
    }

    if (inst.hasDest()) {
        RegClass cls = inst.destClass();
        std::size_t c = classIdx(cls);
        std::uint16_t logical = inst.si.dest.index();
        PhysRegId phys = allocReg(cls, now);
        inst.prevTag = mapTable[c][logical];
        mapTable[c][logical] = phys;
        inst.physReg = phys;
        inst.wakeupTag = phys;
    }
    inst.setRenameCycle(now);
}

bool
ConventionalRename::tryIssue(DynInst &, Cycle)
{
    // Registers were allocated at decode; issue never blocks on them.
    return true;
}

CompleteResult
ConventionalRename::complete(DynInst &inst, Cycle)
{
    if (inst.hasDest()) {
        std::size_t c = classIdx(inst.destClass());
        VPR_ASSERT(inst.physReg != kNoReg, "complete without phys reg");
        ready[c][inst.physReg] = true;
    }
    return {true};
}

void
ConventionalRename::commitInst(DynInst &inst, Cycle now)
{
    if (!inst.hasDest())
        return;
    // Free the physical register of the previous instruction with the
    // same logical destination (it can no longer be referenced).
    VPR_ASSERT(inst.prevTag != kNoReg, "commit without previous mapping");
    freeReg(inst.destClass(), static_cast<PhysRegId>(inst.prevTag), now);
}

void
ConventionalRename::squashInst(DynInst &inst, Cycle now)
{
    // Undo this instruction's rename (called youngest-first): return its
    // own physical register and restore the previous mapping.
    for (auto &s : inst.src) {
        s.valid = false;
        s.ready = false;
        s.tag = kNoReg;
    }
    if (!inst.hasDest())
        return;
    std::size_t c = classIdx(inst.destClass());
    std::uint16_t logical = inst.si.dest.index();
    VPR_ASSERT(mapTable[c][logical] == inst.physReg,
               "squash: map table does not point at squashed inst");
    mapTable[c][logical] = static_cast<PhysRegId>(inst.prevTag);
    freeReg(inst.destClass(), inst.physReg, now);
    inst.physReg = kNoReg;
    inst.wakeupTag = kNoReg;
}

std::size_t
ConventionalRename::freePhysRegs(RegClass cls) const
{
    return freeList[classIdx(cls)].size();
}

void
ConventionalRename::checkInvariants() const
{
    for (std::size_t c = 0; c < kNumRegClasses; ++c) {
        // No register may be both free and mapped.
        std::vector<bool> isFree(cfg.numPhysRegs, false);
        for (PhysRegId r : freeList[c]) {
            VPR_ASSERT(!isFree[r], "register ", r, " doubly free");
            isFree[r] = true;
        }
        for (std::uint16_t l = 0; l < kNumLogicalRegs; ++l) {
            VPR_ASSERT(!isFree[mapTable[c][l]],
                       "mapped register ", mapTable[c][l], " is free");
        }
    }
}

} // namespace vpr
