/**
 * @file
 * Abstract interface shared by the register-renaming schemes.
 *
 * The pipeline is scheme-agnostic: it renames through this interface at
 * decode, consults it at issue (the VP issue-allocation policy may deny
 * issue), notifies it at completion (the VP write-back policy may demand
 * a squash-and-re-execute), and at commit/squash. Implementations:
 * ConventionalRename (R10000-style baseline) and VirtualPhysicalRename
 * (the paper's contribution, with both allocation policies).
 */

#ifndef VPR_RENAME_RENAME_IFACE_HH
#define VPR_RENAME_RENAME_IFACE_HH

#include <cstdint>
#include <string>

#include "common/stats.hh"
#include "common/types.hh"
#include "core/dyn_inst.hh"
#include "isa/reg.hh"
#include "rename/pressure.hh"

namespace vpr
{

/** Which renaming organization a core uses. */
enum class RenameScheme : std::uint8_t
{
    Conventional,        ///< R10000: allocate phys reg at decode
    VPAllocAtWriteback,  ///< virtual-physical, allocate at write-back
    VPAllocAtIssue,      ///< virtual-physical, allocate at issue
    /** Conventional renaming + counter-based early release (Moudgill et
     *  al. / Smith & Sohi, cited in paper §3.1): eliminates the
     *  *second* waste factor (dead value awaiting its superseder's
     *  commit) while still allocating at decode. Ablation scheme. */
    ConventionalEarlyRelease
};

/** The canonical scheme name: the text of core.scheme, whose aliases
 *  (conv, vp-wb, conv-er) CoreConfig::visitParams adds. */
const char *renameSchemeName(RenameScheme s);

/** True for the two virtual-physical variants. */
inline bool
isVirtualPhysical(RenameScheme s)
{
    return s == RenameScheme::VPAllocAtWriteback ||
           s == RenameScheme::VPAllocAtIssue;
}

/** Outcome of notifying the renamer that an instruction completed. */
struct CompleteResult
{
    /** False only under VP write-back allocation when no physical
     *  register may be taken: the instruction must be squashed back to
     *  the instruction queue and re-executed. */
    bool ok = true;
};

class ParamVisitor;

/** Register-file sizing for one core. */
struct RenameConfig
{
    /** Physical registers per register file (paper: 48, 64 or 96). */
    std::uint16_t numPhysRegs = 64;
    /** Virtual-physical registers per file; the paper requires
     *  NVR >= NLR + window so the pool can never run dry. */
    std::uint16_t numVPRegs = kNumLogicalRegs + 128;
    /** Reserved registers (NRR) for the oldest instructions, per class.
     *  Only meaningful for the VP schemes. */
    std::uint16_t nrrInt = 32;
    std::uint16_t nrrFp = 32;

    /** Reflect the sizing parameters (sim/params.hh). */
    void visitParams(ParamVisitor &v);
};

/**
 * The renaming engine of one simulated core. All methods take the
 * current cycle where timing matters (pressure accounting and the VP
 * scheme's one-cycle-delayed commit-time frees).
 */
class RenameManager
{
  public:
    explicit RenameManager(const RenameConfig &config);
    virtual ~RenameManager() = default;

    virtual RenameScheme scheme() const = 0;

    /** Called once at the top of every cycle (releases delayed frees). */
    virtual void tick(Cycle now) = 0;

    /**
     * Can the decode stage rename instructions needing @p nIntDests
     * integer and @p nFpDests FP destinations this cycle? The
     * conventional scheme requires free physical registers; the VP
     * schemes require free VP registers (never exhausted when sized per
     * the paper).
     */
    virtual bool canRename(unsigned nIntDests, unsigned nFpDests)
        const = 0;

    /**
     * Rename @p inst: fill in its SrcOperand tags/ready bits and its
     * destination tags, and record the previous mapping for recovery.
     */
    virtual void renameInst(DynInst &inst, Cycle now) = 0;

    /**
     * Called when @p inst is about to issue. The VP issue-allocation
     * policy allocates the physical destination here and may refuse
     * (keeping the instruction in the IQ). Other schemes always accept.
     */
    virtual bool tryIssue(DynInst &inst, Cycle now) = 0;

    /**
     * The issue gate for every waiting instruction of class @p cls at
     * once: tryIssue would refuse exactly the destination writers of
     * @p cls whose sequence number is not below this bound (kNoSeqNum:
     * none refused). Within one issue stage only tryIssue's own
     * allocations change the gate, and they only lower the bound (see
     * IssueStage), so an instruction at or above it at the start of
     * issue is refused all cycle.
     */
    virtual InstSeqNum
    issueGateBound(RegClass cls) const
    {
        (void)cls;
        return kNoSeqNum;
    }

    /**
     * Called when @p inst finishes execution. Updates map state and, for
     * VP write-back allocation, tries to allocate the physical register;
     * on failure returns ok=false and the core must re-queue the
     * instruction.
     */
    virtual CompleteResult complete(DynInst &inst, Cycle now) = 0;

    /** Called at commit: frees the previous mapping of the dest. */
    virtual void commitInst(DynInst &inst, Cycle now) = 0;

    /**
     * Called youngest-first for every squashed instruction: undo the
     * rename, returning tags/registers to their pools and restoring the
     * previous mapping (the paper's ROB-walk recovery).
     */
    virtual void squashInst(DynInst &inst, Cycle now) = 0;

    /** Free physical registers right now (inspection/tests). */
    virtual std::size_t freePhysRegs(RegClass cls) const = 0;

    /** Registers currently allocated, i.e.\ NPR - free (per class). */
    std::size_t
    busyPhysRegs(RegClass cls) const
    {
        return cfg.numPhysRegs - freePhysRegs(cls);
    }

    /** Self-check of internal invariants; panics when broken. */
    virtual void checkInvariants() const = 0;

    /**
     * Register the renamer's stat groups — "rename" (mean holding
     * times), "rename.vp" (per-value register-lifetime distributions)
     * and "regfile" (occupancy distributions, peaks) — into the core's
     * stats tree.
     */
    void regStats(stats::StatRegistry &r);

    /** Record this cycle's busy-register counts into the occupancy
     *  distributions (called once per cycle by the pipeline). */
    void
    sampleOccupancy()
    {
        for (std::size_t c = 0; c < kNumRegClasses; ++c)
            occupancyDist[c].sampleCounted(
                busyPhysRegs(static_cast<RegClass>(c)));
    }

    /** Regfile occupancy distribution for one class (tests/figures). */
    const stats::Distribution &
    occupancyStat(RegClass cls) const
    {
        return occupancyDist[classIdx(cls)];
    }

    /** Register-lifetime distribution for one class. */
    const stats::Distribution &
    lifetimeStat(RegClass cls) const
    {
        return lifetimeDist[classIdx(cls)];
    }

    const RenameConfig &config() const { return cfg; }

    /** Pressure integration for each register class. */
    const PressureTracker &
    pressure(RegClass cls) const
    {
        return pressureTrk[classIdx(cls)];
    }
    PressureTracker &
    pressure(RegClass cls)
    {
        return pressureTrk[classIdx(cls)];
    }

    /** Times VP write-back allocation refused a register. */
    std::uint64_t allocationRejections() const { return nRejections; }

  protected:
    RenameConfig cfg;
    /** Lifetime distributions are declared before the trackers that
     *  sample into them (construction order). */
    stats::Distribution lifetimeDist[kNumRegClasses];
    stats::Distribution occupancyDist[kNumRegClasses];
    PressureTracker pressureTrk[kNumRegClasses];
    std::uint64_t nRejections = 0;

  private:
    stats::StatGroup renameGroup{"rename"};
    stats::StatGroup vpGroup{"rename.vp"};
    stats::StatGroup regfileGroup{"regfile"};
    stats::Real meanHold[kNumRegClasses] = {
        {"mean_hold_cycles_int",
         "mean register-holding cycles per int value"},
        {"mean_hold_cycles_fp",
         "mean register-holding cycles per FP value"}};
    stats::Scalar peakBusy[kNumRegClasses] = {
        {"peak_busy_int", "peak busy integer physical registers"},
        {"peak_busy_fp", "peak busy FP physical registers"}};
};

} // namespace vpr

#endif // VPR_RENAME_RENAME_IFACE_HH
