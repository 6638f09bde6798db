/**
 * @file
 * Dynamic instruction: one in-flight instance of a trace record with all
 * of its pipeline and rename state.
 *
 * The fields mirror Figure 2 of the paper: the instruction-queue entry
 * (opcode, destination tag, Src1/R1, Src2/R2) and the reorder-buffer
 * entry (logical destination, completed bit, previous virtual-physical
 * mapping) are all carried here; the IQ and ROB reference DynInsts
 * rather than duplicating the fields. So do the scheduler's records
 * (ReadyRef, the IQ's wait-list entries, completion events, the LSQ's
 * stores): each is a (DynInst *, seq) pair, stale once the
 * instruction's seq() no longer matches. The ROB owns every DynInst in
 * its ring and value-initialises a slot when it reuses it, so a record
 * of a squashed or retired instruction always points at a live object
 * and reads as stale as soon as a younger instruction takes its slot.
 */

#ifndef VPR_CORE_DYN_INST_HH
#define VPR_CORE_DYN_INST_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "isa/static_inst.hh"

namespace vpr
{

/** Lifecycle phase of a dynamic instruction. */
enum class InstPhase : std::uint8_t
{
    Renamed,    ///< dispatched to IQ/ROB, waiting for operands
    Issued,     ///< executing on a functional unit
    Completed,  ///< result produced (and register allocated, if any)
    Committed,  ///< retired
    Squashed    ///< removed by branch recovery (slot may be reused)
};

/** Why a load cannot begin its memory access yet (LSQ disambiguation).
 *  Each load carries its most recent hold, so hold statistics count
 *  episodes rather than attempts. */
enum class LoadHold : std::uint8_t
{
    Ready,          ///< may access the cache
    Forward,        ///< older matching store will forward its data
    UnknownAddress, ///< an older store's address is not known yet
    PartialOverlap  ///< overlaps an older store but cannot forward
};

/** One renamed source operand (Src/R fields of Figure 2). */
struct SrcOperand
{
    std::uint16_t tag = kNoReg; ///< phys reg if ready, else wakeup tag
    RegClass cls = RegClass::Int;
    bool valid = false;         ///< operand exists
    bool ready = false;         ///< R bit: value readable at issue
};

struct ReadyRef;

/** An in-flight instruction. Members are ordered so that the record
 *  packs into 136 bytes. */
struct DynInst
{
    /** Every member has a default initializer, so this leaves nothing
     *  indeterminate. It is user-provided on purpose: value-initialising
     *  a DynInst (Rob::allocate builds every entry that way) then runs
     *  only those initializers, where an implicit or defaulted
     *  constructor would first zero the whole record. */
    DynInst() {}

    StaticInst si;

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

    // --- pipeline and memory state ------------------------------------
    unsigned executions = 0;    ///< times issued (re-execution counter)
    Cycle addrReadyCycle = kNoCycle;
    bool addrReady = false;     ///< effective address computed
    bool storeForwarded = false; ///< load got data from an older store
    bool wrongPath = false;     ///< fetched past a mispredicted branch
    bool mispredictedBranch = false;

    /** Lifecycle, scheduler residency and cycle stamps. @{ */
    InstSeqNum seq() const { return seqNum; }
    void setSeq(InstSeqNum s) { seqNum = s; }
    InstPhase phase() const { return lifecycle; }
    void setPhase(InstPhase p) { lifecycle = p; }
    /** Resident in the instruction queue. */
    bool inIq() const { return iqResident; }
    void setInIq(bool b) { iqResident = b; }
    /** Published on the IQ's ready list and not yet issued or gone. */
    bool inReadyQ() const { return readyPublished; }
    void setInReadyQ(bool b) { readyPublished = b; }
    /** Most recent disambiguation hold (loads). */
    LoadHold lastHold() const { return hold; }
    void setLastHold(LoadHold h) { hold = h; }
    Cycle fetchCycle() const { return fetchedAt; }
    void setFetchCycle(Cycle c) { fetchedAt = c; }
    Cycle renameCycle() const { return renamedAt; }
    void setRenameCycle(Cycle c) { renamedAt = c; }
    Cycle issueCycle() const { return issuedAt; }
    void setIssueCycle(Cycle c) { issuedAt = c; }
    Cycle completeCycle() const { return completedAt; }
    void setCompleteCycle(Cycle c) { completedAt = c; }
    Cycle commitCycle() const { return committedAt; }
    void setCommitCycle(Cycle c) { committedAt = c; }
    /** @} */

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

  private:
    InstPhase lifecycle = InstPhase::Renamed;
    LoadHold hold = LoadHold::Ready;
    bool iqResident = false;
    bool readyPublished = false;
    /** 0 until rename numbers the instruction (real ones start at 1). */
    InstSeqNum seqNum = 0;
    Cycle fetchedAt = kNoCycle;
    Cycle renamedAt = kNoCycle;
    Cycle issuedAt = kNoCycle;
    Cycle completedAt = kNoCycle;
    Cycle committedAt = kNoCycle;
};

/**
 * A published/parked scheduler entry (IQ ready list, issue-stage
 * stall lists, the LSQ's stores, woken stores): @p inst is the
 * instruction while it still carries the recorded sequence number, and
 * the entry is stale once it does not.
 */
struct ReadyRef
{
    DynInst *inst = nullptr;
    InstSeqNum seq = 0;
};

inline ReadyRef
DynInst::ref()
{
    return {this, seq()};
}

} // namespace vpr

#endif // VPR_CORE_DYN_INST_HH
