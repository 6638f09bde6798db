#include "rename/virtual_physical.hh"

#include "common/logging.hh"

namespace vpr
{

VirtualPhysicalRename::VirtualPhysicalRename(const RenameConfig &config,
                                             bool atIssue)
    : RenameManager(config), allocAtIssue(atIssue),
      tracker{ReservationTracker(config.nrrInt),
              ReservationTracker(config.nrrFp)}
{
    VPR_ASSERT(cfg.numVPRegs > kNumLogicalRegs,
               "need more VP than logical registers");
    VPR_ASSERT(cfg.nrrInt >= 1 && cfg.nrrFp >= 1,
               "NRR must be >= 1 (deadlock avoidance)");
    VPR_ASSERT(cfg.nrrInt <= cfg.numPhysRegs - kNumLogicalRegs,
               "NRRint larger than NPR - NLR");
    VPR_ASSERT(cfg.nrrFp <= cfg.numPhysRegs - kNumLogicalRegs,
               "NRRfp larger than NPR - NLR");

    for (std::size_t c = 0; c < kNumRegClasses; ++c) {
        gmt[c].assign(kNumLogicalRegs, GmtEntry{});
        pmt[c].assign(cfg.numVPRegs, PmtEntry{});
        // Architected state: logical i is VP register i, which is
        // mapped to physical register i and valid.
        for (std::uint16_t i = 0; i < kNumLogicalRegs; ++i) {
            gmt[c][i] = GmtEntry{i, i, true};
            pmt[c][i] = PmtEntry{i, true};
            pressureTrk[c].onAlloc(i, 0);
        }
        vpFreeList[c].reserve(cfg.numVPRegs);
        for (std::uint16_t v = cfg.numVPRegs; v-- > kNumLogicalRegs;)
            vpFreeList[c].push_back(v);
        physFreeList[c].reserve(cfg.numPhysRegs);
        for (std::uint16_t p = cfg.numPhysRegs; p-- > kNumLogicalRegs;)
            physFreeList[c].push_back(p);
        pendingFrees[c].reserve(cfg.numPhysRegs);
    }
}

void
VirtualPhysicalRename::tick(Cycle now)
{
    // Release the frees queued by commits of earlier cycles (the paper's
    // one-cycle commit delay for the PMT lookup).
    if (now > pendingFreeCycle) {
        for (std::size_t c = 0; c < kNumRegClasses; ++c) {
            for (PhysRegId r : pendingFrees[c]) {
                physFreeList[c].push_back(r);
                pressureTrk[c].onFree(r, now);
            }
            pendingFrees[c].clear();
        }
    }
}

bool
VirtualPhysicalRename::canRename(unsigned nIntDests,
                                 unsigned nFpDests) const
{
    // VP registers are the only decode-time resource. Sized per the
    // paper (NVR >= NLR + window) the pools never run dry, but the check
    // keeps arbitrary configurations safe.
    return vpFreeList[classIdx(RegClass::Int)].size() >= nIntDests &&
           vpFreeList[classIdx(RegClass::Float)].size() >= nFpDests;
}

void
VirtualPhysicalRename::renameInst(DynInst &inst, Cycle now)
{
    // Sources: GMT lookup. V set -> physical register (ready); V clear
    // -> VP register tag (will be woken by the completion broadcast).
    for (std::size_t i = 0; i < kMaxSrcRegs; ++i) {
        const RegId &sr = inst.si.src[i];
        if (!sr.valid())
            continue;
        std::size_t c = classIdx(sr.regClass());
        const GmtEntry &e = gmt[c][sr.index()];
        inst.src[i].valid = true;
        inst.src[i].cls = sr.regClass();
        if (e.v) {
            inst.src[i].tag = e.p;
            inst.src[i].ready = true;
        } else {
            inst.src[i].tag = e.vp;
            inst.src[i].ready = false;
        }
    }

    if (inst.hasDest()) {
        RegClass cls = inst.destClass();
        std::size_t c = classIdx(cls);
        std::uint16_t logical = inst.si.dest.index();
        auto &fl = vpFreeList[c];
        VPR_ASSERT(!fl.empty(), "VP free pool empty; size NVR >= NLR + "
                   "window to prevent this");
        VPRegId vp = fl.back();
        fl.pop_back();
        VPR_ASSERT(!pmt[c][vp].valid, "fresh VP reg has stale PMT entry");

        inst.prevTag = gmt[c][logical].vp;
        gmt[c][logical].vp = vp;
        gmt[c][logical].v = false;

        inst.vpReg = vp;
        inst.wakeupTag = vp;
        inst.physReg = kNoReg;
        tracker[c].onRename(inst.seq());
    }
    inst.setRenameCycle(now);
}

PhysRegId
VirtualPhysicalRename::allocPhys(RegClass cls, InstSeqNum seq, Cycle now)
{
    std::size_t c = classIdx(cls);
    auto &fl = physFreeList[c];
    VPR_ASSERT(!fl.empty(), "allocPhys with empty free list");
    PhysRegId reg = fl.back();
    fl.pop_back();
    pressureTrk[c].onAlloc(reg, now);
    tracker[c].onAllocate(seq);
    return reg;
}

void
VirtualPhysicalRename::freePhysDelayed(RegClass cls, PhysRegId reg)
{
    pendingFrees[classIdx(cls)].push_back(reg);
}

void
VirtualPhysicalRename::freePhysNow(RegClass cls, PhysRegId reg, Cycle now)
{
    physFreeList[classIdx(cls)].push_back(reg);
    pressureTrk[classIdx(cls)].onFree(reg, now);
}

bool
VirtualPhysicalRename::tryIssue(DynInst &inst, Cycle now)
{
    if (!allocAtIssue || !inst.hasDest())
        return true;
    VPR_ASSERT(inst.physReg == kNoReg, "issue-alloc: already has a reg");

    RegClass cls = inst.destClass();
    std::size_t c = classIdx(cls);
    if (!tracker[c].mayAllocate(inst.seq(), physFreeList[c].size())) {
        ++nIssueRejections;
        return false;
    }
    inst.physReg = allocPhys(cls, inst.seq(), now);
    return true;
}

InstSeqNum
VirtualPhysicalRename::issueGateBound(RegClass cls) const
{
    if (!allocAtIssue)
        return kNoSeqNum;
    const std::size_t c = classIdx(cls);
    return tracker[c].admitBound(physFreeList[c].size());
}

CompleteResult
VirtualPhysicalRename::complete(DynInst &inst, Cycle now)
{
    if (!inst.hasDest())
        return {true};

    RegClass cls = inst.destClass();
    std::size_t c = classIdx(cls);

    if (!allocAtIssue) {
        VPR_ASSERT(inst.physReg == kNoReg,
                   "writeback-alloc: completing twice");
        if (!tracker[c].mayAllocate(inst.seq(), physFreeList[c].size())) {
            // No register may be taken: squash back to the IQ and
            // re-execute later (paper, section 3.3).
            ++nRejections;
            return {false};
        }
        inst.physReg = allocPhys(cls, inst.seq(), now);
    }
    VPR_ASSERT(inst.physReg != kNoReg, "complete without phys reg");

    // Record the VP -> physical binding in the PMT.
    VPR_ASSERT(!pmt[c][inst.vpReg].valid, "PMT entry already valid");
    pmt[c][inst.vpReg] = PmtEntry{inst.physReg, true};

    // Broadcast to the GMT: if the logical register still maps to this
    // VP register, expose the physical register to future decodes.
    std::uint16_t logical = inst.si.dest.index();
    if (gmt[c][logical].vp == inst.vpReg) {
        gmt[c][logical].p = inst.physReg;
        gmt[c][logical].v = true;
    }
    return {true};
}

void
VirtualPhysicalRename::commitInst(DynInst &inst, Cycle now)
{
    if (!inst.hasDest())
        return;

    RegClass cls = inst.destClass();
    std::size_t c = classIdx(cls);
    tracker[c].onCommit(inst.seq());

    // Free the VP register of the previous instruction with the same
    // logical destination, and the physical register found through the
    // PMT (always valid: that producer committed earlier, so it had
    // completed and allocated).
    VPRegId prevVp = static_cast<VPRegId>(inst.prevTag);
    PmtEntry &pe = pmt[c][prevVp];
    VPR_ASSERT(pe.valid, "commit: previous VP sn has no phys mapping");
    freePhysDelayed(cls, pe.phys);
    pendingFreeCycle = now;
    pe = PmtEntry{};
    vpFreeList[c].push_back(prevVp);
}

void
VirtualPhysicalRename::squashInst(DynInst &inst, Cycle now)
{
    for (auto &s : inst.src) {
        s.valid = false;
        s.ready = false;
        s.tag = kNoReg;
    }
    if (!inst.hasDest())
        return;

    RegClass cls = inst.destClass();
    std::size_t c = classIdx(cls);
    std::uint16_t logical = inst.si.dest.index();
    tracker[c].onSquash(inst.seq());

    VPR_ASSERT(gmt[c][logical].vp == inst.vpReg,
               "squash: GMT does not point at squashed inst");

    // Return this instruction's VP register (and physical register, if
    // one was already allocated) to the pools.
    if (inst.physReg != kNoReg) {
        VPR_ASSERT(!pmt[c][inst.vpReg].valid ||
                       pmt[c][inst.vpReg].phys == inst.physReg,
                   "squash: PMT mismatch");
        freePhysNow(cls, inst.physReg, now);
    }
    pmt[c][inst.vpReg] = PmtEntry{};
    vpFreeList[c].push_back(inst.vpReg);

    // Restore the previous mapping: VP field from the ROB-held previous
    // tag, physical mapping (and V bit) through the PMT.
    VPRegId prevVp = static_cast<VPRegId>(inst.prevTag);
    gmt[c][logical].vp = prevVp;
    const PmtEntry &pe = pmt[c][prevVp];
    gmt[c][logical].p = pe.valid ? pe.phys : 0;
    gmt[c][logical].v = pe.valid;

    inst.physReg = kNoReg;
    inst.vpReg = kNoReg;
    inst.wakeupTag = kNoReg;
}

std::size_t
VirtualPhysicalRename::freePhysRegs(RegClass cls) const
{
    return physFreeList[classIdx(cls)].size();
}

void
VirtualPhysicalRename::checkInvariants() const
{
    for (std::size_t c = 0; c < kNumRegClasses; ++c) {
        std::vector<bool> physFree(cfg.numPhysRegs, false);
        for (PhysRegId r : physFreeList[c]) {
            VPR_ASSERT(!physFree[r], "phys reg ", r, " doubly free");
            physFree[r] = true;
        }
        for (PhysRegId r : pendingFrees[c]) {
            VPR_ASSERT(!physFree[r], "phys reg ", r,
                       " both free and pending");
            physFree[r] = true;
        }

        std::vector<bool> vpFree(cfg.numVPRegs, false);
        for (VPRegId v : vpFreeList[c]) {
            VPR_ASSERT(!vpFree[v], "VP reg ", v, " doubly free");
            vpFree[v] = true;
            VPR_ASSERT(!pmt[c][v].valid, "free VP reg ", v,
                       " has valid PMT entry");
        }

        // PMT-valid physical registers are distinct and not free.
        std::vector<bool> seen(cfg.numPhysRegs, false);
        for (std::uint16_t v = 0; v < cfg.numVPRegs; ++v) {
            if (!pmt[c][v].valid)
                continue;
            PhysRegId p = pmt[c][v].phys;
            VPR_ASSERT(!seen[p], "phys reg ", p, " mapped by two VP regs");
            seen[p] = true;
            VPR_ASSERT(!physFree[p], "mapped phys reg ", p, " is free");
        }

        // GMT consistency: the VP mapping is live (not free); a valid P
        // field matches the PMT.
        for (std::uint16_t l = 0; l < kNumLogicalRegs; ++l) {
            const GmtEntry &e = gmt[c][l];
            VPR_ASSERT(!vpFree[e.vp], "GMT vp of logical ", l, " is free");
            if (e.v) {
                VPR_ASSERT(pmt[c][e.vp].valid &&
                               pmt[c][e.vp].phys == e.p,
                           "GMT/PMT disagree for logical ", l);
            }
        }
    }
}

} // namespace vpr
