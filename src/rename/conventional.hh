/**
 * @file
 * Conventional register renaming (the paper's baseline).
 *
 * R10000-style: a map table translates each logical register to a
 * physical register; the destination gets a free physical register at
 * decode; when an instruction commits, the physical register allocated
 * by the *previous* instruction with the same logical destination is
 * freed. Source operands are renamed to the last mapping; readiness is
 * tracked with a per-physical-register scoreboard bit.
 */

#ifndef VPR_RENAME_CONVENTIONAL_HH
#define VPR_RENAME_CONVENTIONAL_HH

#include <vector>

#include "rename/rename_iface.hh"

namespace vpr
{

/** The R10000-style baseline renamer. */
class ConventionalRename : public RenameManager
{
  public:
    explicit ConventionalRename(const RenameConfig &config);

    RenameScheme scheme() const override
    {
        return RenameScheme::Conventional;
    }

    void tick(Cycle now) override;
    bool canRename(unsigned nIntDests, unsigned nFpDests) const override;
    void renameInst(DynInst &inst, Cycle now) override;
    bool tryIssue(DynInst &inst, Cycle now) override;
    CompleteResult complete(DynInst &inst, Cycle now) override;
    void commitInst(DynInst &inst, Cycle now) override;
    void squashInst(DynInst &inst, Cycle now) override;

    std::size_t freePhysRegs(RegClass cls) const override;
    void checkInvariants() const override;

    /** Current mapping of a logical register (tests). */
    PhysRegId
    mapping(RegClass cls, std::uint16_t logical) const
    {
        return mapTable[classIdx(cls)][logical];
    }

    /** Scoreboard bit of a physical register (tests). */
    bool
    isReady(RegClass cls, PhysRegId reg) const
    {
        return ready[classIdx(cls)][reg];
    }

  protected:
    PhysRegId allocReg(RegClass cls, Cycle now);
    void freeReg(RegClass cls, PhysRegId reg, Cycle now);

    /** logical -> physical, per class. */
    std::vector<PhysRegId> mapTable[kNumRegClasses];
    /** scoreboard: value present in the physical register. */
    std::vector<bool> ready[kNumRegClasses];
    /** free pool, LIFO. */
    std::vector<PhysRegId> freeList[kNumRegClasses];
};

} // namespace vpr

#endif // VPR_RENAME_CONVENTIONAL_HH
