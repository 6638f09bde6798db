/**
 * @file
 * NRR reservation tracker — the paper's deadlock-avoidance mechanism
 * (section 3.3).
 *
 * The paper maintains, per register class, a pointer PRR to the NRR-th
 * oldest in-flight instruction with a destination register, plus
 * counters Reg (destination-writing instructions at or below PRR) and
 * Used (how many of those already allocated a physical register). An
 * instruction may allocate a physical register iff
 *
 *     freeRegs > NRR - Used   (leave room for the reserved set), or
 *     it is itself one of the oldest NRR destination-writing
 *     instructions (not younger than PRR).
 *
 * We represent the same state directly as an age-ordered window of
 * destination-writing instructions with an "allocated" flag; the oldest
 * min(NRR, size) entries are the reserved set. This is exactly the
 * PRR/Reg/Used bookkeeping, just held in one structure. The window is a
 * CircularBuffer sized once: every tracked writer holds a VP register,
 * so at most NVR - NLR of them are in flight per class, and the
 * per-instruction push/pop traffic never touches the allocator.
 */

#ifndef VPR_RENAME_RESERVATION_HH
#define VPR_RENAME_RESERVATION_HH

#include <cstdint>

#include "common/circular_buffer.hh"
#include "common/types.hh"

namespace vpr
{

/** Deadlock-avoidance reservation bookkeeping for one register class. */
class ReservationTracker
{
  public:
    /** @param window most destination writers ever in flight at once
     *         (the VP registers beyond the architected ones). */
    ReservationTracker(unsigned nrr, std::size_t window);

    /** A destination-writing instruction was renamed (program order). */
    void onRename(InstSeqNum seq);

    /** The instruction allocated its physical register. */
    void onAllocate(InstSeqNum seq);

    /** The oldest instruction committed. */
    void onCommit(InstSeqNum seq);

    /** The youngest instruction was squashed. */
    void onSquash(InstSeqNum seq);

    /**
     * The paper's allocation predicate.
     *
     * @param seq the completing/issuing instruction (tracked, as for
     *            isReserved)
     * @param freeRegs free physical registers right now
     * @return true if the instruction may take a register
     */
    bool
    mayAllocate(InstSeqNum seq, std::size_t freeRegs) const
    {
        return seq < admitBound(freeRegs);
    }

    /**
     * The predicate for every tracked instruction at once: mayAllocate
     * admits exactly the tracked instructions older than the returned
     * sequence number. That is kNoSeqNum (all) when
     * freeRegs > NRR - Used, one past the last reserved instruction
     * when 0 < freeRegs <= NRR - Used, and 0 (none) when no register
     * is free.
     */
    InstSeqNum admitBound(std::size_t freeRegs) const;

    /** True if @p seq is within the oldest-NRR reserved set. O(1).
     *  Precondition: @p seq is tracked (renamed, not yet committed or
     *  squashed); every caller passes an in-flight destination. */
    bool isReserved(InstSeqNum seq) const;

    /** Used counter: allocated instructions inside the reserved set.
     *  Maintained incrementally — O(1), read on every allocation
     *  attempt. */
    unsigned usedInReserved() const { return usedRes; }

    /** Reg counter: size of the reserved set (<= NRR). */
    unsigned
    reservedCount() const
    {
        return static_cast<unsigned>(
            window.size() < nrr ? window.size() : nrr);
    }

    std::size_t inFlight() const { return window.size(); }
    bool empty() const { return window.empty(); }

  private:
    struct Entry
    {
        InstSeqNum seq;
        bool allocated;
    };

    /** First window index whose seq is >= @p s (the window is age- and
     *  therefore seq-ordered). */
    std::size_t lowerBound(InstSeqNum s) const;

    unsigned nrr;
    /** In-flight destination writers, oldest first. */
    CircularBuffer<Entry> window;
    /** Allocated entries within the oldest-min(nrr,size) window. */
    unsigned usedRes = 0;
};

} // namespace vpr

#endif // VPR_RENAME_RESERVATION_HH
