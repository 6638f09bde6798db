#include "core/iq.hh"

#include "common/logging.hh"

namespace vpr
{

void
InstQueue::addWaiters(DynInst *inst)
{
    for (std::size_t i = 0; i < kMaxSrcRegs; ++i) {
        const SrcOperand &s = inst->src[i];
        if (!s.valid || s.ready)
            continue;
        auto &lists = waitLists[classIdx(s.cls)];
        if (s.tag >= lists.size())
            lists.resize(s.tag + 1);
        // First waiter on this tag: size the list for a realistic
        // burst up front so steady state rarely needs to grow it at
        // all (growth beyond this is one-time per tag — the buffer is
        // never swapped away).
        if (lists[s.tag].capacity() == 0)
            lists[s.tag].reserve(kWaitListReserve);
        lists[s.tag].push_back(
            {inst, inst->seq(), inst->slot, static_cast<std::uint8_t>(i)});
    }
}

void
InstQueue::insert(DynInst *inst)
{
    VPR_ASSERT(!full(), "insert into full IQ");
    VPR_ASSERT(!inst->inIq(), "duplicate IQ entry sn:", inst->seq());
    inst->setInIq(true);
    ++resident;
    addWaiters(inst);
    maybePublishReady(inst);
}

unsigned
InstQueue::wakeup(RegClass cls, std::uint16_t tag, std::uint16_t physReg)
{
    ++broadcasts;
    auto &lists = waitLists[classIdx(cls)];
    if (tag >= lists.size())
        return 0;
    // Consume the tag's wait list: every valid waiter wakes; stale
    // entries (instruction issued, squashed, or its slot reused — the
    // seq/residency check catches all three) are simply dropped. A tag
    // is broadcast at most once per allocation, so the list drains
    // exactly when a scan of the queue would have found its waiters. The
    // staleness check reads only the packed hot arrays via the recorded
    // slot; a stale waiter never touches its DynInst.
    //
    // The one waiter that outlives its queue residency is the data
    // operand of an issued store: the store left the queue on its
    // address operand and is parked until this broadcast.
    //
    // The list is walked in place and cleared after: nothing appends
    // to a tag while it broadcasts (waking publishes onto other lists),
    // and each tag keeps its own buffer at its high-water capacity, so
    // the steady state allocates nothing (pinned per cycle by the
    // hot-loop allocation tests).
    std::vector<Waiter> &waiters = lists[tag];
    unsigned nWoken = 0;
    for (const Waiter &w : waiters) {
        if (!hot.live(w.slot, w.seq))
            continue;
        const bool inQueue = hot.isInIq(w.slot);
        if (!inQueue &&
            (w.srcIdx != 0 || hot.phaseOf(w.slot) != InstPhase::Issued ||
             !w.inst->isStore()))
            continue;
        SrcOperand &s = w.inst->src[w.srcIdx];
        if (!s.valid || s.ready || s.cls != cls || s.tag != tag)
            continue;
        s.tag = physReg;
        s.ready = true;
        if (inQueue) {
            ++nWoken;
            maybePublishReady(w.inst);
        } else {
            storesWoken.emplace_back(w.inst, w.seq, w.slot);
        }
    }
    waiters.clear();
    woken += nWoken;
    return nWoken;
}

} // namespace vpr
