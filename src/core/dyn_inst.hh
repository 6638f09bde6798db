/**
 * @file
 * Dynamic instruction: one in-flight instance of a trace record with all
 * of its pipeline and rename state.
 *
 * The fields mirror Figure 2 of the paper: the instruction-queue entry
 * (opcode, destination tag, Src1/R1, Src2/R2) and the reorder-buffer
 * entry (logical destination, completed bit, previous virtual-physical
 * mapping) are all carried here; the IQ and ROB reference DynInsts
 * rather than duplicating the fields.
 *
 * DynInst itself keeps only the *cold* rename/ISA state. The hot
 * scalars the cycle loop hammers — phase, sequence number, scheduler
 * residency flags, the pipeline cycle stamps, the last hold verdict —
 * live in the packed InstHotPool (inst_hot.hh), indexed by ROB slot;
 * the accessors below forward there so call sites stay readable.
 * Rob::allocate() binds an instruction to its slot; a DynInst is never
 * meaningfully copied once bound (the binding identifies a storage
 * slot, not a value).
 */

#ifndef VPR_CORE_DYN_INST_HH
#define VPR_CORE_DYN_INST_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "core/inst_hot.hh"
#include "isa/static_inst.hh"

namespace vpr
{

/** One renamed source operand (Src/R fields of Figure 2). */
struct SrcOperand
{
    std::uint16_t tag = kNoReg; ///< phys reg if ready, else wakeup tag
    RegClass cls = RegClass::Int;
    bool valid = false;         ///< operand exists
    bool ready = false;         ///< R bit: value readable at issue
};

struct ReadyRef;

/** An in-flight instruction (the cold half; hot state in InstHotPool). */
struct DynInst
{
    /** Every member has a default initializer, so this leaves nothing
     *  indeterminate. It is user-provided on purpose: value-initialising
     *  a DynInst (Rob::allocate builds every entry that way) then runs
     *  only those initializers, where an implicit or defaulted
     *  constructor would first zero the whole record. */
    DynInst() {}

    StaticInst si;
    bool wrongPath = false;     ///< fetched past a mispredicted branch

    // --- hot-state binding ----------------------------------------------
    /** The packed hot-state row of this instruction: pool + ROB slot.
     *  Bound by Rob::allocate() (tests bind explicitly). */
    InstHotPool *hot = nullptr;
    HotIdx slot = kNoHotIdx;

    void
    bindHot(InstHotPool *pool, HotIdx idx)
    {
        hot = pool;
        slot = idx;
    }

    /** Hot-state accessors: forward to the pool row. @{ */
    InstSeqNum seq() const { return hot->seqOf(slot); }
    void setSeq(InstSeqNum s) { hot->setSeq(slot, s); }
    InstPhase phase() const { return hot->phaseOf(slot); }
    void setPhase(InstPhase p) { hot->setPhase(slot, p); }
    bool inIq() const { return hot->isInIq(slot); }
    void setInIq(bool b) { hot->setInIq(slot, b); }
    bool inReadyQ() const { return hot->isInReadyQ(slot); }
    void setInReadyQ(bool b) { hot->setInReadyQ(slot, b); }
    LoadHold lastHold() const { return hot->lastHoldOf(slot); }
    void setLastHold(LoadHold h) { hot->setLastHold(slot, h); }
    Cycle fetchCycle() const { return hot->fetchCycleOf(slot); }
    void setFetchCycle(Cycle c) { hot->setFetchCycle(slot, c); }
    Cycle renameCycle() const { return hot->renameCycleOf(slot); }
    void setRenameCycle(Cycle c) { hot->setRenameCycle(slot, c); }
    Cycle issueCycle() const { return hot->issueCycleOf(slot); }
    void setIssueCycle(Cycle c) { hot->setIssueCycle(slot, c); }
    Cycle completeCycle() const { return hot->completeCycleOf(slot); }
    void setCompleteCycle(Cycle c) { hot->setCompleteCycle(slot, c); }
    Cycle commitCycle() const { return hot->commitCycleOf(slot); }
    void setCommitCycle(Cycle c) { hot->setCommitCycle(slot, c); }
    /** @} */

    // --- rename state -------------------------------------------------
    SrcOperand src[kMaxSrcRegs];
    /** Tag consumers wake up on: the physical register in the
     *  conventional scheme, the VP register in the VP schemes. */
    std::uint16_t wakeupTag = kNoReg;
    /** VP register of the destination (VP schemes only). */
    VPRegId vpReg = kNoReg;
    /** Physical destination register. Conventional: set at rename.
     *  VP: set at issue or write-back depending on the policy. */
    PhysRegId physReg = kNoReg;
    /** Previous mapping of the logical destination (phys reg in the
     *  conventional scheme, VP reg in the VP schemes); freed when this
     *  instruction commits, restored if it squashes. */
    std::uint16_t prevTag = kNoReg;

    // --- pipeline state (cold remainder) --------------------------------
    bool mispredictedBranch = false;
    unsigned executions = 0;    ///< times issued (re-execution counter)

    // --- memory state (LSQ) -------------------------------------------
    bool addrReady = false;     ///< effective address computed
    Cycle addrReadyCycle = kNoCycle;
    bool storeForwarded = false; ///< load got data from an older store

    bool hasDest() const { return si.hasDest(); }
    RegClass destClass() const { return si.dest.regClass(); }
    bool isLoad() const { return si.isLoad(); }
    bool isStore() const { return si.isStore(); }
    bool isMem() const { return si.isMem(); }
    bool isBranch() const { return si.isBranch(); }

    /** All source operands ready (instruction may be selected). */
    bool
    operandsReady() const
    {
        for (const auto &s : src)
            if (s.valid && !s.ready)
                return false;
        return true;
    }

    /**
     * Operands needed to *issue*. Stores split like the PA-8000: the
     * address part (src[1], the base register) issues as soon as it is
     * ready; the data (src[0]) may arrive later and only gates
     * completion.
     */
    bool
    issueOperandsReady() const
    {
        if (isStore())
            return !src[1].valid || src[1].ready;
        return operandsReady();
    }

    /** A scheduler record of this instruction (defined below). */
    inline ReadyRef ref();

    /** Debug rendering: seq, phase and disassembly. */
    std::string toString() const;
};

/**
 * A published/parked scheduler entry (IQ ready list, issue-stage stall
 * lists, LSQ hold subscriptions, parked stores): @p inst is valid while
 * the instruction is still resident with the recorded sequence number.
 * The record carries the hot-pool slot so the lazy-staleness check
 * reads only the packed arrays — a stale entry never touches the
 * DynInst. The explicit constructor forces every construction site to
 * supply the slot (no silent aggregate zero-init).
 */
struct ReadyRef
{
    DynInst *inst = nullptr;
    InstSeqNum seq = 0;
    HotIdx slot = kNoHotIdx;

    ReadyRef() = default;
    ReadyRef(DynInst *i, InstSeqNum s, HotIdx sl)
        : inst(i), seq(s), slot(sl)
    {
    }
};

inline ReadyRef
DynInst::ref()
{
    return ReadyRef(this, seq(), slot);
}

} // namespace vpr

#endif // VPR_CORE_DYN_INST_HH
