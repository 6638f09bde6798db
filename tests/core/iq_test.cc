/** @file Unit tests for the instruction queue. */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <iterator>
#include <set>
#include <vector>

#include "core/iq.hh"

namespace vpr
{
namespace
{

/** An IQ and the instructions the tests build for it. */
struct IqFixture
{
    explicit IqFixture(std::size_t cap) : iq(cap) {}

    DynInst
    alu(InstSeqNum seq)
    {
        DynInst d;
        d.si = StaticInst::alu(RegId::intReg(1), RegId::intReg(2),
                               RegId::intReg(3));
        d.setSeq(seq);
        return d;
    }

    DynInst
    waiter(InstSeqNum seq, RegClass cls, std::uint16_t tag)
    {
        DynInst d = alu(seq);
        d.src[0].valid = true;
        d.src[0].cls = cls;
        d.src[0].tag = tag;
        return d;
    }

    /** The random-stimulus tests' own record of the resident entries,
     *  oldest first: the scan reference (the queue keeps no list). @{ */
    void
    insertTracked(DynInst *d)
    {
        iq.insert(d);
        resident.push_back(d);
    }

    void
    removeAt(std::size_t i)
    {
        iq.remove(resident[i]);
        resident.erase(resident.begin() + static_cast<std::ptrdiff_t>(i));
    }

    /** Branch recovery: remove every entry younger than @p keep. */
    void
    squashYoungerThan(InstSeqNum keep)
    {
        while (!resident.empty() && resident.back()->seq() > keep) {
            iq.remove(resident.back());
            resident.pop_back();
        }
    }
    /** @} */

    InstQueue iq;
    std::vector<DynInst *> resident;
};

TEST(InstQueue, RemoveSpecificEntry)
{
    IqFixture f(8);
    DynInst a = f.alu(1), b = f.alu(2);
    f.iq.insert(&a);
    f.iq.insert(&b);
    f.iq.remove(&a);
    ASSERT_EQ(f.iq.size(), 1u);
    EXPECT_FALSE(a.inIq());
    EXPECT_TRUE(b.inIq());
}

TEST(InstQueue, WakeupMatchesClassAndTag)
{
    IqFixture f(8);
    DynInst a = f.alu(1);
    a.src[0].valid = true;
    a.src[0].cls = RegClass::Int;
    a.src[0].tag = 40;
    a.src[1].valid = true;
    a.src[1].cls = RegClass::Float;
    a.src[1].tag = 40;  // same tag number, different class!
    f.iq.insert(&a);

    EXPECT_EQ(f.iq.wakeup(RegClass::Int, 40, 7), 1u);
    EXPECT_TRUE(a.src[0].ready);
    EXPECT_EQ(a.src[0].tag, 7);      // captured the physical register
    EXPECT_FALSE(a.src[1].ready);    // FP operand untouched
}

TEST(InstQueue, WakeupIgnoresAlreadyReady)
{
    IqFixture f(8);
    DynInst a = f.alu(1);
    a.src[0].valid = true;
    a.src[0].cls = RegClass::Int;
    a.src[0].tag = 40;
    a.src[0].ready = true;
    f.iq.insert(&a);
    EXPECT_EQ(f.iq.wakeup(RegClass::Int, 40, 9), 0u);
    EXPECT_EQ(a.src[0].tag, 40);
}

TEST(InstQueue, WakeupHitsAllWaiters)
{
    IqFixture f(8);
    DynInst a = f.alu(1), b = f.alu(2);
    for (DynInst *d : {&a, &b}) {
        d->src[0].valid = true;
        d->src[0].cls = RegClass::Float;
        d->src[0].tag = 99;
        f.iq.insert(d);
    }
    EXPECT_EQ(f.iq.wakeup(RegClass::Float, 99, 3), 2u);
    EXPECT_TRUE(a.src[0].ready && b.src[0].ready);
}

TEST(InstQueue, CapacityTracking)
{
    IqFixture f(2);
    DynInst a = f.alu(1), b = f.alu(2);
    EXPECT_FALSE(f.iq.full());
    f.iq.insert(&a);
    f.iq.insert(&b);
    EXPECT_TRUE(f.iq.full());
}

TEST(InstQueueDeath, InsertIntoFullPanics)
{
    IqFixture f(1);
    DynInst a = f.alu(1), b = f.alu(2);
    f.iq.insert(&a);
    EXPECT_DEATH(f.iq.insert(&b), "full IQ");
}

TEST(InstQueueDeath, DuplicateInsertPanics)
{
    IqFixture f(4);
    DynInst a = f.alu(1), b = f.alu(2);
    f.iq.insert(&a);
    f.iq.insert(&b);
    EXPECT_DEATH(f.iq.insert(&a), "duplicate IQ entry");
}

TEST(InstQueueDeath, RemoveAbsentPanics)
{
    IqFixture f(4);
    DynInst a = f.alu(1);
    EXPECT_DEATH(f.iq.remove(&a), "not present");
}

// --- per-tag wait-list wakeup ---------------------------------------------

TEST(InstQueueWaitList, RemovedEntryIsNotWoken)
{
    IqFixture f(8);
    DynInst a = f.waiter(1, RegClass::Int, 40);
    DynInst b = f.waiter(2, RegClass::Int, 40);
    f.iq.insert(&a);
    f.iq.insert(&b);
    f.iq.remove(&a);  // e.g. issued before the broadcast
    EXPECT_EQ(f.iq.wakeup(RegClass::Int, 40, 7), 1u);
    EXPECT_FALSE(a.src[0].ready);
    EXPECT_TRUE(b.src[0].ready);
}

TEST(InstQueueWaitList, SquashedEntryIsNotWoken)
{
    IqFixture f(8);
    DynInst a = f.waiter(1, RegClass::Float, 9);
    DynInst b = f.waiter(5, RegClass::Float, 9);
    f.iq.insert(&a);
    f.iq.insert(&b);
    f.iq.remove(&b);  // the recovery walk squashes sn:5
    EXPECT_EQ(f.iq.wakeup(RegClass::Float, 9, 3), 1u);
    EXPECT_TRUE(a.src[0].ready);
    EXPECT_FALSE(b.src[0].ready);
}

TEST(InstQueueWaitList, SlotReuseAfterSquashIsDetected)
{
    // A squashed instruction's ROB slot is recycled for a younger one;
    // the stale wait-list entry must not wake the new occupant, while
    // the new occupant's own entry must.
    IqFixture f(8);
    DynInst slot = f.waiter(3, RegClass::Int, 12);
    f.iq.insert(&slot);
    f.iq.remove(&slot);  // squashed
    ASSERT_TRUE(f.iq.empty());

    // Recycle the same storage with a new sequence number, as
    // Rob::allocate() does.
    slot = DynInst();
    slot.si = StaticInst::alu(RegId::intReg(1), RegId::intReg(2),
                              RegId::intReg(3));
    slot.setSeq(9);
    slot.src[0].valid = true;
    slot.src[0].cls = RegClass::Int;
    slot.src[0].tag = 12;
    f.iq.insert(&slot);
    EXPECT_EQ(f.iq.wakeup(RegClass::Int, 12, 4), 1u);
    EXPECT_TRUE(slot.src[0].ready);
    EXPECT_EQ(slot.src[0].tag, 4);
}

TEST(InstQueueWaitList, ReinsertionDoesNotDoubleWake)
{
    // Write-back squash path: an instruction re-enters the queue while
    // its original wait-list entry may still be pending.
    IqFixture f(8);
    DynInst a = f.waiter(4, RegClass::Int, 17);
    f.iq.insert(&a);
    f.iq.remove(&a);
    f.iq.insert(&a);  // re-inserted, still waiting on tag 17
    EXPECT_EQ(f.iq.wakeup(RegClass::Int, 17, 6), 1u);
    EXPECT_TRUE(a.src[0].ready);
}

// --- ready-list publication -----------------------------------------------

/** Drain helper: newly published entries since the last call. */
std::vector<ReadyRef>
drain(InstQueue &iq)
{
    std::vector<ReadyRef> out;
    iq.drainReadyEvents(out);
    return out;
}

TEST(InstQueueWaitList, ParkedStoreDataWakesOntoTheWokenList)
{
    // An issued store left the queue on its address operand; its data
    // operand's wait-list entry, recorded at insert, still wakes it, and
    // the store is handed to the complete stage rather than published.
    IqFixture f(8);
    DynInst st;
    st.si = StaticInst::store(RegId::intReg(3), RegId::intReg(2), 0x100);
    st.setSeq(1);
    st.src[0] = {20, RegClass::Int, true, false};  // data, in flight
    DynInst squashed;
    squashed.si = st.si;
    squashed.setSeq(2);
    squashed.src[0] = {20, RegClass::Int, true, false};
    DynInst alu = f.waiter(3, RegClass::Int, 20);
    for (DynInst *d : {&st, &squashed, &alu}) {
        f.iq.insert(d);
        f.iq.remove(d);
        d->setPhase(InstPhase::Issued);
    }
    squashed.setPhase(InstPhase::Squashed);
    drain(f.iq);  // the inserts published all three

    EXPECT_EQ(f.iq.wakeup(RegClass::Int, 20, 70), 0u);  // none resident
    EXPECT_TRUE(st.src[0].ready);
    EXPECT_EQ(st.src[0].tag, 70);
    EXPECT_FALSE(squashed.src[0].ready);
    EXPECT_FALSE(alu.src[0].ready);
    ASSERT_EQ(f.iq.wokenStores().size(), 1u);
    EXPECT_EQ(f.iq.wokenStores()[0].inst, &st);
    EXPECT_EQ(f.iq.wokenStores()[0].seq, 1u);
    EXPECT_TRUE(drain(f.iq).empty());
}

TEST(InstQueueReady, ReadyAtInsertIsPublishedImmediately)
{
    IqFixture f(8);
    DynInst a = f.alu(1);  // no sources: issue-ready on arrival
    f.iq.insert(&a);
    auto out = drain(f.iq);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].inst, &a);
    EXPECT_EQ(out[0].seq, 1u);
    EXPECT_TRUE(a.inReadyQ());
    // Published exactly once.
    EXPECT_TRUE(drain(f.iq).empty());
}

TEST(InstQueueReady, PublishedWhenLastSourceWakes)
{
    IqFixture f(8);
    DynInst a = f.alu(1);
    a.src[0] = {10, RegClass::Int, true, false};
    a.src[1] = {11, RegClass::Float, true, false};
    f.iq.insert(&a);
    EXPECT_TRUE(drain(f.iq).empty());
    f.iq.wakeup(RegClass::Int, 10, 70);
    EXPECT_TRUE(drain(f.iq).empty());  // one source still outstanding
    f.iq.wakeup(RegClass::Float, 11, 71);
    auto out = drain(f.iq);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].inst, &a);
}

TEST(InstQueueReady, StorePublishesOnAddressOperandOnly)
{
    // A store issues on its address operand (src[1]); the data operand
    // (src[0]) gates completion, not readiness for issue.
    IqFixture f(8);
    DynInst st;
    st.si = StaticInst::store(RegId::intReg(3), RegId::intReg(2), 0x100);
    st.setSeq(1);
    st.src[0] = {20, RegClass::Int, true, false};  // data
    st.src[1] = {21, RegClass::Int, true, false};  // address base
    f.iq.insert(&st);
    EXPECT_TRUE(drain(f.iq).empty());
    f.iq.wakeup(RegClass::Int, 20, 70);  // data wakes: still not ready
    EXPECT_TRUE(drain(f.iq).empty());
    f.iq.wakeup(RegClass::Int, 21, 71);  // address wakes: publish
    auto out = drain(f.iq);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].inst, &st);
}

TEST(InstQueueReady, ReinsertionAfterRemoveRepublishes)
{
    // Write-back rejection path: the instruction issued (leaving the
    // queue), got denied a register, and re-enters ready.
    IqFixture f(8);
    DynInst a = f.alu(1);
    f.iq.insert(&a);
    ASSERT_EQ(drain(f.iq).size(), 1u);
    f.iq.remove(&a);
    EXPECT_FALSE(a.inReadyQ());
    f.iq.insert(&a);
    auto out = drain(f.iq);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].inst, &a);
}

TEST(InstQueueReady, MatchesFullScanOnRandomStimulus)
{
    // Random inserts/wakeups/removes/squashes; the set of instructions
    // ever published (and still valid) must equal exactly the resident
    // issue-ready instructions a full-queue scan would select from —
    // no duplicates, no misses.
    IqFixture f(64);
    std::vector<DynInst> pool(1024);
    std::vector<ReadyRef> published;

    std::uint64_t rng = 0x853c49e6748fea9bull;
    auto next = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };

    std::size_t created = 0;
    InstSeqNum seq = 0;
    for (int step = 0; step < 4000; ++step) {
        switch (next() % 4) {
          case 0:
          case 1: {  // insert (sometimes a store, sometimes ready)
            if (created >= pool.size() || f.iq.full())
                break;
            DynInst d;
            if ((next() & 3) == 0) {
                d.si = StaticInst::store(RegId::intReg(3),
                                         RegId::intReg(2), 0x100);
            } else {
                d.si = StaticInst::alu(RegId::intReg(1), RegId::intReg(2),
                                       RegId::intReg(3));
            }
            d.setSeq(++seq);
            for (int si = 0; si < 2; ++si) {
                d.src[si].valid = (next() & 3) != 0;
                d.src[si].cls =
                    (next() & 1) ? RegClass::Int : RegClass::Float;
                d.src[si].tag = static_cast<std::uint16_t>(next() % 48);
                d.src[si].ready = (next() & 3) == 0;
            }
            pool[created] = d;
            f.insertTracked(&pool[created]);
            ++created;
            break;
          }
          case 2: {  // remove a random resident entry (issue)
            if (f.iq.empty())
                break;
            f.removeAt(next() % f.resident.size());
            break;
          }
          case 3: {  // broadcast or squash
            if ((next() & 7) == 0) {
                f.squashYoungerThan(seq > 0 ? next() % seq : 0);
            } else {
                f.iq.wakeup((next() & 1) ? RegClass::Int : RegClass::Float,
                            static_cast<std::uint16_t>(next() % 48),
                            static_cast<std::uint16_t>(64 + next() % 32));
            }
            break;
          }
        }
        if ((next() & 15) == 0)
            f.iq.drainReadyEvents(published);
    }
    f.iq.drainReadyEvents(published);

    // Valid publications, deduplicated by instruction.
    std::set<const DynInst *> readySet;
    for (const ReadyRef &e : published) {
        if (!e.inst->inIq() || e.inst->seq() != e.seq)
            continue;  // stale: issued, squashed, or slot reused
        EXPECT_TRUE(e.inst->issueOperandsReady());
        EXPECT_TRUE(readySet.insert(e.inst).second)
            << "duplicate publication of sn:" << e.seq;
    }
    // Exactly the entries a full scan would find ready.
    ASSERT_EQ(f.iq.size(), f.resident.size());
    for (const DynInst *inst : f.resident) {
        EXPECT_EQ(readySet.count(inst) == 1, inst->issueOperandsReady())
            << "sn:" << inst->seq();
    }
}

/** Reference model of one broadcast: scan every @p resident entry and
 *  wake the matching sources in @p srcs, the expected operand state of
 *  @p pool indexed like it. @return operands woken. */
unsigned
scanWakeup(const std::vector<DynInst *> &resident,
           const std::vector<DynInst> &pool,
           std::vector<std::array<SrcOperand, kMaxSrcRegs>> &srcs,
           RegClass cls, std::uint16_t tag, std::uint16_t physReg)
{
    unsigned woken = 0;
    for (const DynInst *inst : resident) {
        const auto i = static_cast<std::size_t>(inst - pool.data());
        for (SrcOperand &s : srcs[i]) {
            if (s.valid && !s.ready && s.cls == cls && s.tag == tag) {
                s.tag = physReg;
                s.ready = true;
                ++woken;
            }
        }
    }
    return woken;
}

TEST(InstQueueWaitList, MatchesScanReferenceOnRandomStimulus)
{
    // Drive the wait-list queue with a pseudo-random insert/remove/
    // squash/wakeup stimulus and check every broadcast against a scan
    // of the resident list: the same count, and every operand of every
    // instruction ever created exactly as the scan leaves it.
    IqFixture f(64);
    std::vector<DynInst> pool(512);
    std::vector<std::array<SrcOperand, kMaxSrcRegs>> expected(pool.size());
    std::uint64_t rng = 0x9e3779b97f4a7c15ull;
    auto next = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };

    std::size_t created = 0;
    InstSeqNum seq = 0;
    for (int step = 0; step < 2000; ++step) {
        std::uint64_t r = next();
        switch (r % 4) {
          case 0:
          case 1: {  // insert a fresh instruction
            if (created >= pool.size() || f.iq.full())
                break;
            DynInst &d = pool[created];
            d.si = StaticInst::alu(RegId::intReg(1), RegId::intReg(2),
                                   RegId::intReg(3));
            d.setSeq(++seq);
            for (int si = 0; si < 2; ++si) {
                d.src[si].valid = (next() & 3) != 0;
                d.src[si].cls =
                    (next() & 1) ? RegClass::Int : RegClass::Float;
                d.src[si].tag = static_cast<std::uint16_t>(next() % 48);
                d.src[si].ready = (next() & 3) == 0;
            }
            std::copy(std::begin(d.src), std::end(d.src),
                      expected[created].begin());
            f.insertTracked(&d);
            ++created;
            break;
          }
          case 2: {  // remove a random resident entry (issue)
            if (f.iq.empty())
                break;
            f.removeAt(next() % f.resident.size());
            break;
          }
          case 3: {  // broadcast or squash
            if ((next() & 7) == 0) {
                f.squashYoungerThan(seq > 0 ? next() % seq : 0);
            } else {
                RegClass cls =
                    (next() & 1) ? RegClass::Int : RegClass::Float;
                std::uint16_t tag =
                    static_cast<std::uint16_t>(next() % 48);
                std::uint16_t phys =
                    static_cast<std::uint16_t>(64 + next() % 32);
                const unsigned want =
                    scanWakeup(f.resident, pool, expected, cls, tag, phys);
                EXPECT_EQ(f.iq.wakeup(cls, tag, phys), want);
            }
            break;
          }
        }
    }

    for (std::size_t i = 0; i < created; ++i) {
        for (std::size_t si = 0; si < kMaxSrcRegs; ++si) {
            EXPECT_EQ(pool[i].src[si].ready, expected[i][si].ready)
                << "inst " << i << " src " << si;
            EXPECT_EQ(pool[i].src[si].tag, expected[i][si].tag)
                << "inst " << i << " src " << si;
        }
    }
}

} // namespace
} // namespace vpr
