/**
 * @file
 * Virtual-physical register renaming — the paper's contribution
 * (sections 3.2-3.4).
 *
 * Destinations are renamed at decode to *virtual-physical* (VP)
 * registers: pure tags with no storage that carry dependences. The
 * physical register that will hold the value is allocated late — at
 * write-back (primary policy) or at issue (alternative) — and the
 * binding is recorded in the PMT. Two tables implement the scheme:
 *
 *  - GMT (general map table), indexed by logical register:
 *      { last VP mapping, last physical mapping P, valid bit V }.
 *  - PMT (physical map table), indexed by VP register:
 *      the physical register the VP register was mapped to, if any.
 *
 * Completion broadcasts the (VP, physical) pair: the core forwards it to
 * the instruction queue while this class updates the GMT entry whose VP
 * field matches. Commit frees the *previous* VP mapping of the logical
 * destination plus the physical register found through the PMT; the
 * paper charges one extra cycle for that PMT lookup, modelled here by
 * making commit-time frees visible only from the next cycle.
 *
 * Deadlock avoidance: a ReservationTracker per register class implements
 * the NRR policy (section 3.3). Under write-back allocation a completing
 * instruction that may not allocate is squashed back to the instruction
 * queue (the core re-executes it); under issue allocation the
 * instruction simply does not issue.
 */

#ifndef VPR_RENAME_VIRTUAL_PHYSICAL_HH
#define VPR_RENAME_VIRTUAL_PHYSICAL_HH

#include <vector>

#include "rename/rename_iface.hh"
#include "rename/reservation.hh"

namespace vpr
{

/** The virtual-physical register renamer. */
class VirtualPhysicalRename : public RenameManager
{
  public:
    /** @param atIssue true = allocate at issue, false = at write-back. */
    VirtualPhysicalRename(const RenameConfig &config, bool atIssue);

    RenameScheme
    scheme() const override
    {
        return allocAtIssue ? RenameScheme::VPAllocAtIssue
                            : RenameScheme::VPAllocAtWriteback;
    }

    void tick(Cycle now) override;
    bool canRename(unsigned nIntDests, unsigned nFpDests) const override;
    void renameInst(DynInst &inst, Cycle now) override;
    bool tryIssue(DynInst &inst, Cycle now) override;
    InstSeqNum issueGateBound(RegClass cls) const override;
    CompleteResult complete(DynInst &inst, Cycle now) override;
    void commitInst(DynInst &inst, Cycle now) override;
    void squashInst(DynInst &inst, Cycle now) override;

    std::size_t freePhysRegs(RegClass cls) const override;
    void checkInvariants() const override;

    /** GMT inspection (tests). @{ */
    VPRegId
    gmtVP(RegClass cls, std::uint16_t logical) const
    {
        return gmt[classIdx(cls)][logical].vp;
    }
    PhysRegId
    gmtPhys(RegClass cls, std::uint16_t logical) const
    {
        return gmt[classIdx(cls)][logical].p;
    }
    bool
    gmtValid(RegClass cls, std::uint16_t logical) const
    {
        return gmt[classIdx(cls)][logical].v;
    }
    /** @} */

    /** PMT inspection (tests): phys mapped to @p vp, or kNoReg. */
    std::uint16_t
    pmtPhys(RegClass cls, VPRegId vp) const
    {
        const auto &e = pmt[classIdx(cls)][vp];
        return e.valid ? e.phys : kNoReg;
    }

    /** Free virtual-physical registers right now. */
    std::size_t
    freeVPRegs(RegClass cls) const
    {
        return vpFreeList[classIdx(cls)].size();
    }

    /** Reservation state (tests/stats). */
    const ReservationTracker &
    reservation(RegClass cls) const
    {
        return tracker[classIdx(cls)];
    }

    /** Denied issue attempts under the issue-allocation policy. */
    std::uint64_t issueRejections() const { return nIssueRejections; }

  private:
    struct GmtEntry
    {
        VPRegId vp = 0;   ///< last VP mapping of this logical register
        PhysRegId p = 0;  ///< last physical mapping (valid iff v)
        bool v = false;   ///< V bit
    };

    struct PmtEntry
    {
        PhysRegId phys = 0;
        bool valid = false;
    };

    PhysRegId allocPhys(RegClass cls, InstSeqNum seq, Cycle now);
    void freePhysDelayed(RegClass cls, PhysRegId reg);
    void freePhysNow(RegClass cls, PhysRegId reg, Cycle now);

    bool allocAtIssue;

    std::vector<GmtEntry> gmt[kNumRegClasses];  ///< indexed by logical
    std::vector<PmtEntry> pmt[kNumRegClasses];  ///< indexed by VP reg
    std::vector<VPRegId> vpFreeList[kNumRegClasses];
    std::vector<PhysRegId> physFreeList[kNumRegClasses];
    ReservationTracker tracker[kNumRegClasses];

    /** Commit-time frees queued during this cycle; released by the next
     *  tick() — the paper's one-cycle PMT-lookup commit delay. */
    std::vector<PhysRegId> pendingFrees[kNumRegClasses];
    Cycle pendingFreeCycle = 0;   ///< cycle the pending frees were queued

    std::uint64_t nIssueRejections = 0;
};

} // namespace vpr

#endif // VPR_RENAME_VIRTUAL_PHYSICAL_HH
