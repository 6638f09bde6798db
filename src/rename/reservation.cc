#include "rename/reservation.hh"

#include "common/logging.hh"

namespace vpr
{

namespace
{

/** Smallest power of two >= max(cap, 64). The in-flight window is
 *  bounded by the ROB, so one or two doublings settle the ring for the
 *  life of the tracker. */
std::size_t
ringCapacityFor(std::size_t cap)
{
    std::size_t size = 64;
    while (size < cap)
        size *= 2;
    return size;
}

} // namespace

ReservationTracker::ReservationTracker(unsigned nrr_)
    : nrr(nrr_), ring(ringCapacityFor(0))
{
    VPR_ASSERT(nrr >= 1, "NRR must be at least 1 to avoid deadlock");
}

void
ReservationTracker::reserve(std::size_t cap)
{
    if (cap <= ring.size())
        return;
    std::vector<Entry> bigger(ringCapacityFor(cap));
    for (std::size_t i = 0; i < num; ++i)
        bigger[i] = at(i);
    ring.swap(bigger);
    head = 0;
}

std::size_t
ReservationTracker::lowerBound(InstSeqNum s) const
{
    std::size_t lo = 0, hi = num;
    while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (at(mid).seq < s)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

void
ReservationTracker::onRename(InstSeqNum seq)
{
    VPR_ASSERT(num == 0 || at(num - 1).seq < seq,
               "rename out of program order");
    if (num == ring.size())
        reserve(num + 1);
    ++num;
    at(num - 1) = {seq, false};
}

void
ReservationTracker::onAllocate(InstSeqNum seq)
{
    // Entries are age-ordered (rename is in program order), so the
    // instruction is found by binary search rather than a walk of the
    // whole in-flight window.
    const std::size_t i = lowerBound(seq);
    if (i == num || at(i).seq != seq)
        VPR_PANIC("onAllocate: unknown instruction sn:", seq);
    VPR_ASSERT(!at(i).allocated, "double allocation for sn:", seq);
    at(i).allocated = true;
    if (i < reservedCount())
        ++usedRes;
}

void
ReservationTracker::onCommit(InstSeqNum seq)
{
    VPR_ASSERT(num != 0 && at(0).seq == seq,
               "commit of non-oldest dest instruction sn:", seq);
    if (at(0).allocated)
        --usedRes;
    // The old (nrr+1)-th oldest entry (if any) enters the reserved set.
    if (num > nrr && at(nrr).allocated)
        ++usedRes;
    head = (head + 1) & (ring.size() - 1);
    --num;
}

void
ReservationTracker::onSquash(InstSeqNum seq)
{
    VPR_ASSERT(num != 0 && at(num - 1).seq == seq,
               "squash of non-youngest dest instruction sn:", seq);
    if (num <= nrr && at(num - 1).allocated)
        --usedRes;
    --num;
}

bool
ReservationTracker::isReserved(InstSeqNum seq) const
{
    // The window is seq-ordered and holds seq (the precondition), so
    // seq is among the oldest reservedCount() entries iff it is no
    // younger than the last of them.
    const std::size_t lim = reservedCount();
    return lim != 0 && seq <= at(lim - 1).seq;
}

bool
ReservationTracker::mayAllocate(InstSeqNum seq, std::size_t freeRegs) const
{
    if (freeRegs == 0)
        return false;
    // Reserved instructions may always take a register (one is kept for
    // each of them by construction).
    if (isReserved(seq))
        return true;
    // Younger instructions must leave enough registers for the
    // not-yet-allocated part of the reserved set.
    unsigned needed = nrr - usedInReserved();
    return freeRegs > needed;
}

} // namespace vpr
