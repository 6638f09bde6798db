#include "core/lsq.hh"

#include <algorithm>

#include "common/logging.hh"

namespace vpr
{

void
LineRefMap::erase(Addr line)
{
    Slot *s = probe(line);
    if (!s->used)
        return;
    const std::size_t mask = slots.size() - 1;
    std::size_t hole = static_cast<std::size_t>(s - slots.data());
    slots[hole].used = false;
    slots[hole].refs.clear();
    --numUsed;
    // Backward-shift the probe chain over the hole so lookups never
    // need tombstones. Vectors are swapped, not moved: the vacated
    // slot keeps a capacity for its next tenant.
    std::size_t i = (hole + 1) & mask;
    while (slots[i].used) {
        const std::size_t want = ideal(slots[i].line);
        // The entry at i may move into the hole iff the hole lies
        // within its probe path [want, i] (cyclically).
        if (((i - want) & mask) >= ((i - hole) & mask)) {
            slots[hole].line = slots[i].line;
            slots[hole].used = true;
            std::swap(slots[hole].refs, slots[i].refs);
            slots[i].used = false;
            hole = i;
        }
        i = (i + 1) & mask;
    }
}

void
LineRefMap::grow()
{
    std::vector<Slot> old(slots.size() * 2);
    old.swap(slots);
    numUsed = 0;
    for (Slot &s : old) {
        if (!s.used)
            continue;
        Slot *dst = probe(s.line);
        dst->used = true;
        dst->line = s.line;
        std::swap(dst->refs, s.refs);
        ++numUsed;
    }
}

Addr
Lsq::firstLine(const DynInst *m)
{
    return m->si.effAddr >> kLineShift;
}

Addr
Lsq::lastLine(const DynInst *m)
{
    return (m->si.effAddr + m->si.memSize - 1) >> kLineShift;
}

void
Lsq::insert(DynInst *inst)
{
    VPR_ASSERT(!full(), "insert into full LSQ");
    VPR_ASSERT(inst->isMem(), "non-memory instruction in LSQ");
    VPR_ASSERT(youngest < inst->seq(), "LSQ insert out of program order");
    youngest = inst->seq();
    ++resident;
    // A store enters with its address unknown; program order keeps the
    // unknown list seq-sorted by construction.
    if (inst->isStore())
        unknownStores.push_back(inst->ref());
}

void
Lsq::eraseUnknown(InstSeqNum seq)
{
    auto it = std::lower_bound(
        unknownStores.begin(), unknownStores.end(), seq,
        [](const ReadyRef &r, InstSeqNum s) { return r.seq < s; });
    if (it != unknownStores.end() && it->seq == seq)
        unknownStores.erase(it);
}

void
Lsq::flushKnown(Cycle until)
{
    // Address visibility cycles are handed in nondecreasing order
    // (issue assigns now + 1 with a monotonic clock), so the pending
    // list is a FIFO.
    while (!pendingKnown.empty() && pendingKnown.front().second < until) {
        eraseUnknown(pendingKnown.front().first);
        pendingKnown.popFront();
    }
}

void
Lsq::eraseLineEntries(DynInst *store)
{
    if (!store->addrReady)
        return;  // never indexed
    for (Addr l = firstLine(store); l <= lastLine(store); ++l) {
        std::vector<ReadyRef> *bucket = lineTable.find(l);
        if (!bucket)
            continue;
        bucket->erase(std::remove_if(bucket->begin(), bucket->end(),
                                     [store](const ReadyRef &r) {
                                         return r.inst == store;
                                     }),
                      bucket->end());
        if (bucket->empty())
            lineTable.erase(l);
    }
}

Lsq::SubList &
Lsq::subsFor(const DynInst *store)
{
    const std::size_t slot = store->slot;
    if (slot >= holdSubs.size())
        holdSubs.resize(slot + 1);
    SubList &e = holdSubs[slot];
    if (e.owner != store->seq()) {
        // A previous tenant of the slot left its (already dead)
        // subscriptions behind; reclaim the list for the new owner.
        e.owner = store->seq();
        e.subs.clear();
    }
    return e;
}

void
Lsq::releaseSubs(const DynInst *store, Cycle wake)
{
    const std::size_t slot = store->slot;
    if (slot >= holdSubs.size())
        return;
    SubList &e = holdSubs[slot];
    if (e.owner != store->seq())
        return;
    for (const ReadyRef &r : e.subs)
        pendingRelease.push_back({r.inst, r.seq, r.slot, wake});
    e.subs.clear();
}

void
Lsq::dropSubs(const DynInst *store)
{
    const std::size_t slot = store->slot;
    if (slot < holdSubs.size() && holdSubs[slot].owner == store->seq())
        holdSubs[slot].subs.clear();
}

void
Lsq::onStoreAddrComputed(DynInst *inst)
{
    VPR_ASSERT(inst->isStore() && inst->addrReady,
               "address-computed hook without a computed address");
    for (Addr l = firstLine(inst); l <= lastLine(inst); ++l)
        lineTable.bucket(l).push_back(inst->ref());
    // The address is visible from addrReadyCycle on; until then the
    // store still counts as unknown (checked lazily against the cycle),
    // and the unknown-list entry is flushed once the cycle passes. The
    // flush relies on visibility cycles arriving in nondecreasing order
    // (issue assigns now + 1 with a monotonic clock). Issue computes
    // an address the cycle before it becomes visible, so every entry
    // due before this one is visible already: flushing those first
    // bounds the list by the stores that issue in one cycle.
    VPR_ASSERT(pendingKnown.empty() ||
                   pendingKnown.back().second <= inst->addrReadyCycle,
               "store address visibility cycles must be monotone");
    flushKnown(inst->addrReadyCycle);
    pendingKnown.pushBack({inst->seq(), inst->addrReadyCycle});
    releaseSubs(inst, inst->addrReadyCycle);
}

void
Lsq::subscribeHold(DynInst *load, const DynInst *blocker, LoadHold hold)
{
    VPR_ASSERT(blocker && blocker->isStore(),
               "hold subscription without a blocking store");
    VPR_ASSERT(hold == LoadHold::UnknownAddress ||
                   hold == LoadHold::PartialOverlap,
               "subscribing a load that is not held");
    if (hold == LoadHold::UnknownAddress && blocker->addrReady) {
        // The blocker computed its address earlier this cycle, so its
        // release event already fired; park directly on the pending
        // list, due when the address becomes visible.
        pendingRelease.push_back(
            {load, load->seq(), load->slot, blocker->addrReadyCycle});
        return;
    }
    // UnknownAddress releases at address computation, PartialOverlap at
    // the blocker's commit (remove) — both via the blocker's slot.
    subsFor(blocker).subs.push_back(load->ref());
}

void
Lsq::takeReadyHolds(Cycle now, std::vector<ReadyRef> &out)
{
    std::size_t keep = 0;
    for (const HoldRelease &r : pendingRelease) {
        if (r.wake <= now)
            out.emplace_back(r.inst, r.seq, r.slot);
        else
            pendingRelease[keep++] = r;
    }
    pendingRelease.resize(keep);
}

void
Lsq::remove(DynInst *inst)
{
    VPR_ASSERT(resident != 0, "LSQ remove from an empty queue");
    --resident;
    if (inst->isStore()) {
        eraseLineEntries(inst);
        eraseUnknown(inst->seq());
        // Commit ticks before issue, so loads held on this store may
        // re-attempt this very cycle, as an every-cycle re-check would.
        releaseSubs(inst, 0);
    }
}

void
Lsq::squash(DynInst *inst)
{
    VPR_ASSERT(resident != 0, "LSQ squash from an empty queue");
    --resident;
    if (inst->isStore()) {
        eraseLineEntries(inst);
        eraseUnknown(inst->seq());
        dropSubs(inst);
    }
}

LoadCheck
Lsq::disambiguate(const DynInst *load, Cycle now)
{
    VPR_ASSERT(load->isLoad(), "checkLoad on non-load");
    flushKnown(now + 1);

    // Youngest older store whose address is still unknown at `now` (the
    // unknown-address watermark). Entries whose visibility cycle has
    // not passed yet are still pending in the FIFO, hence the lazy
    // cycle check.
    const DynInst *unknown = nullptr;
    InstSeqNum unknownSeq = 0;
    for (auto it = unknownStores.rbegin(); it != unknownStores.rend();
         ++it) {
        if (it->seq >= load->seq())
            continue;
        const DynInst *st = it->inst;
        if (st->addrReady && st->addrReadyCycle <= now)
            continue;  // visible now; flush is still pending
        unknown = st;
        unknownSeq = it->seq;
        break;
    }

    // Youngest older store with a visible overlapping address, found
    // through the line table (an access touches at most two lines).
    const DynInst *ovl = nullptr;
    InstSeqNum ovlSeq = 0;
    for (Addr l = firstLine(load); l <= lastLine(load); ++l) {
        const std::vector<ReadyRef> *bucket = lineTable.find(l);
        if (!bucket)
            continue;
        for (const ReadyRef &ref : *bucket) {
            if (ref.seq >= load->seq())
                continue;
            if (ovl && ref.seq <= ovlSeq)
                continue;  // already have a younger candidate
            const DynInst *st = ref.inst;
            if (!st->addrReady || st->addrReadyCycle > now)
                continue;  // counts as unknown, handled above
            if (!overlap(st->si.effAddr, st->si.memSize,
                         load->si.effAddr, load->si.memSize))
                continue;
            ovl = st;
            ovlSeq = ref.seq;
        }
    }

    // The *youngest* decisive store wins, exactly as a reverse queue
    // scan would encounter it first.
    if (!unknown && !ovl)
        return {LoadHold::Ready, nullptr};
    if (unknown && (!ovl || unknownSeq > ovlSeq))
        return {LoadHold::UnknownAddress, unknown};
    if (ovl->si.effAddr <= load->si.effAddr &&
        ovl->si.effAddr + ovl->si.memSize >=
            load->si.effAddr + load->si.memSize) {
        return {LoadHold::Forward, ovl};
    }
    return {LoadHold::PartialOverlap, ovl};
}

void
Lsq::recordHold(LoadHold h)
{
    switch (h) {
      case LoadHold::Forward:
        ++nForwards;
        break;
      case LoadHold::UnknownAddress:
        ++nUnknownHolds;
        break;
      case LoadHold::PartialOverlap:
        ++nPartialHolds;
        break;
      default:
        break;
    }
}

} // namespace vpr
