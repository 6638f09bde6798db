/**
 * @file
 * Conventional renaming with counter-based early register release.
 *
 * The paper (section 3.1) distinguishes two sources of register waste
 * under decode-time allocation and cites Moudgill et al. and Smith &
 * Sohi for eliminating the second one: a value whose readers have all
 * read it and whose logical register has been renamed again still holds
 * its physical register until the superseding instruction *commits*.
 * This renamer frees such registers as soon as
 *
 *   (a) the value has been produced (write-back done),
 *   (b) the logical register has been renamed again (superseded), and
 *   (c) no in-flight reader still needs to read it (pending-reader
 *       counter is zero).
 *
 * It is provided as an *ablation* against virtual-physical registers:
 * the paper argues the first waste factor (decode→write-back holding)
 * dominates; `bench/ablation_early_release` quantifies that claim.
 *
 * Restriction: early release is incompatible with squash-based recovery
 * unless counters are checkpointed (as the original papers do). Use it
 * with `WrongPathMode::Stall` (the paper's trace-driven methodology,
 * where no wrong-path instructions are ever renamed);
 * SimConfig::validate() refuses any other mode, and squashing
 * an instruction whose previous mapping was already released panics.
 */

#ifndef VPR_RENAME_EARLY_RELEASE_HH
#define VPR_RENAME_EARLY_RELEASE_HH

#include <unordered_set>

#include "rename/conventional.hh"

namespace vpr
{

/** Conventional renamer + pending-reader counters for early freeing. */
class EarlyReleaseRename : public ConventionalRename
{
  public:
    explicit EarlyReleaseRename(const RenameConfig &config);

    RenameScheme
    scheme() const override
    {
        return RenameScheme::ConventionalEarlyRelease;
    }

    void renameInst(DynInst &inst, Cycle now) override;
    bool tryIssue(DynInst &inst, Cycle now) override;
    CompleteResult complete(DynInst &inst, Cycle now) override;
    void commitInst(DynInst &inst, Cycle now) override;
    void squashInst(DynInst &inst, Cycle now) override;
    void checkInvariants() const override;

    /** Registers freed before their superseder committed. */
    std::uint64_t earlyReleases() const { return nEarlyReleases; }

    /** Pending-reader count of a register (tests). */
    unsigned
    pendingReaders(RegClass cls, PhysRegId reg) const
    {
        return state[classIdx(cls)][reg].pendingReaders;
    }

  private:
    struct RegState
    {
        unsigned pendingReaders = 0;
        bool written = false;     ///< value produced
        bool superseded = false;  ///< logical register renamed again
        bool earlyFreed = false;  ///< released before superseder commit
        InstSeqNum supersederSeq = kNoSeqNum; ///< who superseded it
    };

    /** Free @p reg early if (a), (b) and (c) all hold. */
    void maybeRelease(RegClass cls, PhysRegId reg, Cycle now);

    std::vector<RegState> state[kNumRegClasses];
    /** Superseders whose previous mapping was already released; their
     *  commit must not free it again (the register may have been
     *  reallocated by then, so this cannot live in RegState). */
    std::unordered_set<InstSeqNum> owedFrees;
    std::uint64_t nEarlyReleases = 0;
};

} // namespace vpr

#endif // VPR_RENAME_EARLY_RELEASE_HH
