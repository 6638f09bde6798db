#include "rename/early_release.hh"

#include "common/logging.hh"

namespace vpr
{

EarlyReleaseRename::EarlyReleaseRename(const RenameConfig &config)
    : ConventionalRename(config)
{
    for (std::size_t c = 0; c < kNumRegClasses; ++c) {
        state[c].assign(cfg.numPhysRegs, RegState{});
        // Architected values exist already.
        for (std::uint16_t i = 0; i < kNumLogicalRegs; ++i)
            state[c][i].written = true;
    }
}

void
EarlyReleaseRename::maybeRelease(RegClass cls, PhysRegId reg, Cycle now)
{
    RegState &st = state[classIdx(cls)][reg];
    if (st.written && st.superseded && st.pendingReaders == 0 &&
        !st.earlyFreed) {
        st.earlyFreed = true;
        owedFrees.insert(st.supersederSeq);
        ++nEarlyReleases;
        freeReg(cls, reg, now);
    }
}

void
EarlyReleaseRename::renameInst(DynInst &inst, Cycle now)
{
    ConventionalRename::renameInst(inst, now);

    // Count this instruction as a pending reader of each source.
    for (const auto &s : inst.src) {
        if (s.valid)
            ++state[classIdx(s.cls)][s.tag].pendingReaders;
    }

    if (inst.hasDest()) {
        RegClass cls = inst.destClass();
        // Fresh register: clean state.
        state[classIdx(cls)][inst.physReg] = RegState{};
        // The previous mapping is now superseded; it may already be
        // releasable (value written, no readers left).
        PhysRegId prev = static_cast<PhysRegId>(inst.prevTag);
        state[classIdx(cls)][prev].superseded = true;
        state[classIdx(cls)][prev].supersederSeq = inst.seq();
        maybeRelease(cls, prev, now);
    }
}

bool
EarlyReleaseRename::tryIssue(DynInst &inst, Cycle now)
{
    // The register-file read happens at issue: drop the reader counts.
    for (const auto &s : inst.src) {
        if (!s.valid)
            continue;
        RegState &st = state[classIdx(s.cls)][s.tag];
        VPR_ASSERT(st.pendingReaders > 0, "reader underflow on reg ",
                   s.tag);
        --st.pendingReaders;
        maybeRelease(s.cls, static_cast<PhysRegId>(s.tag), now);
    }
    return true;
}

CompleteResult
EarlyReleaseRename::complete(DynInst &inst, Cycle now)
{
    auto res = ConventionalRename::complete(inst, now);
    if (inst.hasDest()) {
        RegClass cls = inst.destClass();
        state[classIdx(cls)][inst.physReg].written = true;
        maybeRelease(cls, inst.physReg, now);
    }
    return res;
}

void
EarlyReleaseRename::commitInst(DynInst &inst, Cycle now)
{
    if (!inst.hasDest())
        return;
    if (owedFrees.erase(inst.seq())) {
        // The previous mapping was already released by the counter
        // mechanism (and may even have been reallocated since).
        return;
    }
    ConventionalRename::commitInst(inst, now);
}

void
EarlyReleaseRename::squashInst(DynInst &inst, Cycle now)
{
    // Un-count readers that have not issued (issued ones already read).
    if (inst.phase() == InstPhase::Renamed) {
        for (const auto &s : inst.src) {
            if (!s.valid)
                continue;
            RegState &st = state[classIdx(s.cls)][s.tag];
            VPR_ASSERT(st.pendingReaders > 0,
                       "squash reader underflow on reg ", s.tag);
            --st.pendingReaders;
        }
    }
    if (inst.hasDest()) {
        RegClass cls = inst.destClass();
        PhysRegId prev = static_cast<PhysRegId>(inst.prevTag);
        RegState &st = state[classIdx(cls)][prev];
        VPR_ASSERT(owedFrees.count(inst.seq()) == 0,
                   "early release is incompatible with squashing a "
                   "superseder; run with WrongPathMode::Stall "
                   "(see early_release.hh)");
        if (st.supersederSeq == inst.seq()) {
            st.superseded = false;
            st.supersederSeq = kNoSeqNum;
        }
        state[classIdx(cls)][inst.physReg] = RegState{};
    }
    ConventionalRename::squashInst(inst, now);
}

void
EarlyReleaseRename::checkInvariants() const
{
    ConventionalRename::checkInvariants();
    for (std::size_t c = 0; c < kNumRegClasses; ++c) {
        for (std::uint16_t l = 0; l < kNumLogicalRegs; ++l) {
            PhysRegId p = mapTable[c][l];
            VPR_ASSERT(!state[c][p].earlyFreed,
                       "mapped register ", p, " marked early-freed");
            VPR_ASSERT(!state[c][p].superseded,
                       "current mapping ", p, " marked superseded");
        }
    }
}

} // namespace vpr
