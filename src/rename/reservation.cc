#include "rename/reservation.hh"

#include "common/logging.hh"

namespace vpr
{

ReservationTracker::ReservationTracker(unsigned nrr_, std::size_t window_)
    : nrr(nrr_), window(window_)
{
    VPR_ASSERT(nrr >= 1, "NRR must be at least 1 to avoid deadlock");
}

std::size_t
ReservationTracker::lowerBound(InstSeqNum s) const
{
    std::size_t lo = 0, hi = window.size();
    while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (window.at(mid).seq < s)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

void
ReservationTracker::onRename(InstSeqNum seq)
{
    VPR_ASSERT(window.empty() || window.back().seq < seq,
               "rename out of program order");
    window.pushBack({seq, false});
}

void
ReservationTracker::onAllocate(InstSeqNum seq)
{
    // Entries are age-ordered (rename is in program order), so the
    // instruction is found by binary search rather than a walk of the
    // whole in-flight window.
    const std::size_t i = lowerBound(seq);
    if (i == window.size() || window.at(i).seq != seq)
        VPR_PANIC("onAllocate: unknown instruction sn:", seq);
    Entry &e = window.at(i);
    VPR_ASSERT(!e.allocated, "double allocation for sn:", seq);
    e.allocated = true;
    if (i < reservedCount())
        ++usedRes;
}

void
ReservationTracker::onCommit(InstSeqNum seq)
{
    VPR_ASSERT(!window.empty() && window.front().seq == seq,
               "commit of non-oldest dest instruction sn:", seq);
    if (window.front().allocated)
        --usedRes;
    // The old (nrr+1)-th oldest entry (if any) enters the reserved set.
    if (window.size() > nrr && window.at(nrr).allocated)
        ++usedRes;
    window.popFront();
}

void
ReservationTracker::onSquash(InstSeqNum seq)
{
    VPR_ASSERT(!window.empty() && window.back().seq == seq,
               "squash of non-youngest dest instruction sn:", seq);
    if (window.size() <= nrr && window.back().allocated)
        --usedRes;
    window.popBack();
}

bool
ReservationTracker::isReserved(InstSeqNum seq) const
{
    // The window is seq-ordered and holds seq (the precondition), so
    // seq is among the oldest reservedCount() entries iff it is no
    // younger than the last of them.
    const std::size_t lim = reservedCount();
    return lim != 0 && seq <= window.at(lim - 1).seq;
}

InstSeqNum
ReservationTracker::admitBound(std::size_t freeRegs) const
{
    if (freeRegs == 0)
        return 0;
    // Younger instructions must leave enough registers for the
    // not-yet-allocated part of the reserved set.
    if (freeRegs > nrr - usedInReserved())
        return kNoSeqNum;
    // Reserved instructions may always take a register (one is kept for
    // each of them by construction).
    const std::size_t lim = reservedCount();
    return lim != 0 ? window.at(lim - 1).seq + 1 : 0;
}

} // namespace vpr
