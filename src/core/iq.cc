#include "core/iq.hh"

#include <algorithm>

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
    inst->setInIq(true);
    addWaiters(inst);
    maybePublishReady(inst);
    if (list.empty() || list.back()->seq() < inst->seq()) {
        list.push_back(inst);
        return;
    }
    // Re-insertion after a write-back allocation squash: keep age order.
    auto it = std::lower_bound(
        list.begin(), list.end(), inst,
        [](const DynInst *a, const DynInst *b) { return a->seq() < b->seq(); });
    VPR_ASSERT(it == list.end() || (*it)->seq() != inst->seq(),
               "duplicate IQ entry sn:", inst->seq());
    list.insert(it, inst);
}

void
InstQueue::remove(DynInst *inst)
{
    auto it = std::lower_bound(
        list.begin(), list.end(), inst,
        [](const DynInst *a, const DynInst *b) { return a->seq() < b->seq(); });
    VPR_ASSERT(it != list.end() && *it == inst,
               "IQ remove: entry not present");
    inst->setInIq(false);
    inst->setInReadyQ(false);
    list.erase(it);
}

void
InstQueue::squashYoungerThan(InstSeqNum seq)
{
    while (!list.empty() && list.back()->seq() > seq) {
        list.back()->setInIq(false);
        list.back()->setInReadyQ(false);
        list.pop_back();
    }
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
    // Copy the tag's list into a persistent scratch buffer and clear
    // it (a waiter appended mid-processing must not be consumed by
    // this broadcast). Copy, never swap: with a swap the buffer
    // capacities circulate through the scratch across all tags, so a
    // hot tag keeps inheriting whichever small buffer the scratch last
    // held and re-grows it — rare reallocations that never converge.
    // With per-tag stable buffers every list reaches its own
    // high-water capacity once and the steady state allocates nothing
    // (pinned per cycle by the hot-loop allocation tests).
    wakeScratch.assign(lists[tag].begin(), lists[tag].end());
    lists[tag].clear();
    unsigned nWoken = 0;
    for (const Waiter &w : wakeScratch) {
        if (!hot.live(w.slot, w.seq) || !hot.isInIq(w.slot))
            continue;
        SrcOperand &s = w.inst->src[w.srcIdx];
        if (!s.valid || s.ready || s.cls != cls || s.tag != tag)
            continue;
        s.tag = physReg;
        s.ready = true;
        ++nWoken;
        maybePublishReady(w.inst);
    }
    woken += nWoken;
    return nWoken;
}

} // namespace vpr
