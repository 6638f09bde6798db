/**
 * @file
 * Unit tests for the LSQ and PA-8000-style disambiguation through the
 * address-indexed store table: behavioural cases, line-boundary
 * overlaps, squash/commit cleanup, the hold subscription machinery,
 * and a randomized fuzz against a reverse-scan model that lives only
 * here. The queue keeps no entry list, so the tests squash youngest
 * first through Lsq::squash, as the ROB walk does.
 */

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "core/lsq.hh"

namespace vpr
{
namespace
{

DynInst
load(InstSeqNum seq, Addr addr, unsigned size = 8)
{
    DynInst d;
    d.si = StaticInst::load(RegId::intReg(1), RegId::intReg(2), addr);
    d.si.memSize = static_cast<std::uint8_t>(size);
    d.setSeq(seq);
    return d;
}

DynInst
store(InstSeqNum seq, Addr addr, unsigned size = 8)
{
    DynInst d;
    d.si = StaticInst::store(RegId::intReg(3), RegId::intReg(2), addr);
    d.si.memSize = static_cast<std::uint8_t>(size);
    d.setSeq(seq);
    return d;
}

/** Mark a store's address computed, visible from @p cycle, through the
 *  real protocol (the issue stage sets the fields then notifies). */
void
computeAddr(Lsq &lsq, DynInst &s, Cycle cycle)
{
    s.addrReady = true;
    s.addrReadyCycle = cycle;
    lsq.onStoreAddrComputed(&s);
}

/** The behavioural disambiguation cases. The store table is the only
 *  path; the single instantiation keeps the case names
 *  (Paths/LsqPaths.<case>/table) stable. */
class LsqPaths : public ::testing::TestWithParam<bool>
{
};

INSTANTIATE_TEST_SUITE_P(Paths, LsqPaths, ::testing::Values(false),
                         [](const auto &) { return "table"; });

TEST_P(LsqPaths, LoadWithNoOlderStoresIsReady)
{
    Lsq lsq(8);
    DynInst l = load(1, 0x100);
    lsq.insert(&l);
    EXPECT_EQ(lsq.checkLoad(&l, 10), LoadHold::Ready);
}

TEST_P(LsqPaths, LoadWaitsForUnknownStoreAddress)
{
    Lsq lsq(8);
    DynInst s = store(1, 0x100);
    DynInst l = load(2, 0x200);
    lsq.insert(&s);
    lsq.insert(&l);
    EXPECT_EQ(lsq.checkLoad(&l, 10), LoadHold::UnknownAddress);
    // Address computed but visible only in the future: still unknown at
    // cycle 10.
    computeAddr(lsq, s, 20);
    EXPECT_EQ(lsq.checkLoad(&l, 10), LoadHold::UnknownAddress);
    EXPECT_EQ(lsq.checkLoad(&l, 20), LoadHold::Ready);
}

TEST_P(LsqPaths, MatchingStoreForwards)
{
    Lsq lsq(8);
    DynInst s = store(1, 0x100);
    DynInst l = load(2, 0x100);
    lsq.insert(&s);
    lsq.insert(&l);
    computeAddr(lsq, s, 5);
    EXPECT_EQ(lsq.checkLoad(&l, 10), LoadHold::Forward);
}

TEST_P(LsqPaths, ContainedAccessForwards)
{
    Lsq lsq(8);
    DynInst s = store(1, 0x100, 8);
    DynInst l = load(2, 0x104, 4);  // inside the store's 8 bytes
    lsq.insert(&s);
    lsq.insert(&l);
    computeAddr(lsq, s, 0);
    EXPECT_EQ(lsq.checkLoad(&l, 10), LoadHold::Forward);
}

TEST_P(LsqPaths, PartialOverlapHolds)
{
    Lsq lsq(8);
    DynInst s = store(1, 0x104, 4);
    DynInst l = load(2, 0x100, 8);  // covers more than the store wrote
    lsq.insert(&s);
    lsq.insert(&l);
    computeAddr(lsq, s, 0);
    EXPECT_EQ(lsq.checkLoad(&l, 10), LoadHold::PartialOverlap);
}

TEST_P(LsqPaths, NearestStoreWins)
{
    Lsq lsq(8);
    DynInst s1 = store(1, 0x100);
    DynInst s2 = store(2, 0x100);
    DynInst l = load(3, 0x100);
    lsq.insert(&s1);
    lsq.insert(&s2);
    lsq.insert(&l);
    computeAddr(lsq, s1, 0);
    // Only the older store's address is known: the younger one blocks
    // even though s1 matches.
    EXPECT_EQ(lsq.checkLoad(&l, 10), LoadHold::UnknownAddress);
    computeAddr(lsq, s2, 0);
    // Forward (from s2, the youngest older store).
    EXPECT_EQ(lsq.checkLoad(&l, 10), LoadHold::Forward);
}

TEST_P(LsqPaths, YoungerStoresDoNotAffectLoad)
{
    Lsq lsq(8);
    DynInst l = load(1, 0x100);
    DynInst s = store(2, 0x100);
    lsq.insert(&l);
    lsq.insert(&s);
    EXPECT_EQ(lsq.checkLoad(&l, 10), LoadHold::Ready);
}

TEST_P(LsqPaths, DisjointStoresIgnored)
{
    Lsq lsq(8);
    DynInst s = store(1, 0x200);
    DynInst l = load(2, 0x100);
    lsq.insert(&s);
    lsq.insert(&l);
    computeAddr(lsq, s, 0);
    EXPECT_EQ(lsq.checkLoad(&l, 10), LoadHold::Ready);
}

TEST_P(LsqPaths, DecisiveStoreIsReported)
{
    Lsq lsq(8);
    DynInst s1 = store(1, 0x100);
    DynInst s2 = store(2, 0x300);
    DynInst l = load(3, 0x100);
    lsq.insert(&s1);
    lsq.insert(&s2);
    lsq.insert(&l);
    computeAddr(lsq, s1, 0);
    // s2 (younger, unknown) decides, and is reported as the blocker.
    LoadCheck chk = lsq.disambiguate(&l, 10);
    EXPECT_EQ(chk.hold, LoadHold::UnknownAddress);
    EXPECT_EQ(chk.blocker, &s2);
    computeAddr(lsq, s2, 5);
    chk = lsq.disambiguate(&l, 10);
    EXPECT_EQ(chk.hold, LoadHold::Forward);
    EXPECT_EQ(chk.blocker, &s1);
}

// --- disambiguation-line edge cases ---------------------------------------

TEST_P(LsqPaths, PartialOverlapAcrossLineBoundary)
{
    // The store straddles the 16-byte disambiguation-line boundary at
    // 0x100; the load lives in the second line only and overlaps the
    // store's tail without being contained.
    Lsq lsq(8);
    DynInst s = store(1, 0xFC, 8);  // [0xFC, 0x104)
    DynInst l = load(2, 0x100, 8);  // [0x100, 0x108)
    lsq.insert(&s);
    lsq.insert(&l);
    computeAddr(lsq, s, 0);
    EXPECT_EQ(lsq.checkLoad(&l, 10), LoadHold::PartialOverlap);
}

TEST_P(LsqPaths, ForwardAcrossLineBoundary)
{
    // Both the store and the contained load straddle the boundary; the
    // load appears in two line buckets and must still resolve once.
    Lsq lsq(8);
    DynInst s = store(1, 0xFC, 8);  // [0xFC, 0x104)
    DynInst l = load(2, 0xFE, 4);   // [0xFE, 0x102) — contained
    lsq.insert(&s);
    lsq.insert(&l);
    computeAddr(lsq, s, 0);
    EXPECT_EQ(lsq.checkLoad(&l, 10), LoadHold::Forward);
}

TEST_P(LsqPaths, AdjacentLinesDoNotFalseAlias)
{
    // Same 16-byte line neighbourhood, no byte overlap: the line-granular
    // table must not report a conflict the scan would not.
    Lsq lsq(8);
    DynInst s = store(1, 0x100, 4);  // [0x100, 0x104)
    DynInst l = load(2, 0x104, 4);   // [0x104, 0x108): same line
    lsq.insert(&s);
    lsq.insert(&l);
    computeAddr(lsq, s, 0);
    EXPECT_EQ(lsq.checkLoad(&l, 10), LoadHold::Ready);
}

TEST_P(LsqPaths, ForwardThenStoreSquashed)
{
    // A store forwards; branch recovery squashes it (and the load).
    // A fresh load at the same address must not see the dead store
    // through a stale table entry.
    Lsq lsq(8);
    DynInst s = store(2, 0x100);
    DynInst l = load(3, 0x100);
    lsq.insert(&s);
    lsq.insert(&l);
    computeAddr(lsq, s, 0);
    EXPECT_EQ(lsq.checkLoad(&l, 10), LoadHold::Forward);
    lsq.squash(&l);
    lsq.squash(&s);
    EXPECT_TRUE(lsq.empty());
    DynInst l2 = load(4, 0x100);
    lsq.insert(&l2);
    EXPECT_EQ(lsq.checkLoad(&l2, 12), LoadHold::Ready);
}

TEST_P(LsqPaths, CommittedStoreClearsItsHold)
{
    // A partial-overlap hold clears the cycle the store leaves the
    // queue at commit.
    Lsq lsq(8);
    DynInst s = store(1, 0x104, 4);
    DynInst l = load(2, 0x100, 8);
    lsq.insert(&s);
    lsq.insert(&l);
    computeAddr(lsq, s, 0);
    EXPECT_EQ(lsq.checkLoad(&l, 10), LoadHold::PartialOverlap);
    lsq.remove(&s);
    EXPECT_EQ(lsq.checkLoad(&l, 10), LoadHold::Ready);
}

TEST_P(LsqPaths, SquashDropsYoungest)
{
    Lsq lsq(8);
    DynInst a = load(1, 0x100), b = store(5, 0x200), c = store(9, 0x300);
    lsq.insert(&a);
    lsq.insert(&b);
    lsq.insert(&c);
    lsq.squash(&c);
    EXPECT_EQ(lsq.size(), 2u);
    // The squashed store no longer blocks a younger load; the kept one
    // still does.
    DynInst l = load(10, 0x300);
    lsq.insert(&l);
    LoadCheck chk = lsq.disambiguate(&l, 10);
    EXPECT_EQ(chk.hold, LoadHold::UnknownAddress);
    EXPECT_EQ(chk.blocker, &b);
}

TEST_P(LsqPaths, RemoveAtCommit)
{
    Lsq lsq(8);
    DynInst a = store(1, 0x100), b = load(2, 0x200);
    lsq.insert(&a);
    lsq.insert(&b);
    EXPECT_EQ(lsq.checkLoad(&b, 10), LoadHold::UnknownAddress);
    lsq.remove(&a);
    EXPECT_EQ(lsq.size(), 1u);
    EXPECT_EQ(lsq.checkLoad(&b, 10), LoadHold::Ready);
    lsq.remove(&b);
    EXPECT_TRUE(lsq.empty());
}

TEST(Lsq, MoreStoreAddressesThanEntriesWithoutALoad)
{
    // Every cycle the oldest stores commit and new ones compute their
    // addresses (visible the next cycle), with no load to drain the
    // pending-visibility list: far more addresses than the queue holds
    // pass through it. Each computation first flushes what is visible
    // already, so the list stays within the queue's capacity.
    constexpr std::size_t kCap = 4;
    Lsq lsq(kCap);
    std::vector<DynInst> stores;
    stores.reserve(64);
    InstSeqNum seq = 0;
    std::size_t oldest = 0;
    for (Cycle now = 1; now <= 12; ++now) {
        while (oldest < stores.size() &&
               stores[oldest].addrReadyCycle <= now)
            lsq.remove(&stores[oldest++]);
        while (!lsq.full()) {
            ++seq;
            stores.push_back(store(seq, 0x100 + 8 * seq));
            lsq.insert(&stores.back());
            computeAddr(lsq, stores.back(), now + 1);
        }
    }
    EXPECT_GT(stores.size(), 4 * kCap);
    while (oldest < stores.size())
        lsq.remove(&stores[oldest++]);
    EXPECT_TRUE(lsq.empty());
    // Nothing stale is left: a load behind a fresh unknown store waits
    // on it alone, and after its address is known, forwards from it.
    DynInst s = store(++seq, 0x200), l = load(++seq, 0x200);
    lsq.insert(&s);
    lsq.insert(&l);
    LoadCheck chk = lsq.disambiguate(&l, 13);
    EXPECT_EQ(chk.hold, LoadHold::UnknownAddress);
    EXPECT_EQ(chk.blocker, &s);
    computeAddr(lsq, s, 14);
    EXPECT_EQ(lsq.checkLoad(&l, 14), LoadHold::Forward);
}

// --- hold subscriptions ---------------------------------------------------

TEST(LsqHolds, UnknownHoldReleasesWhenAddressBecomesVisible)
{
    Lsq lsq(8);
    DynInst s = store(1, 0x100);
    DynInst l = load(2, 0x100);
    lsq.insert(&s);
    lsq.insert(&l);
    l.setInIq(true);

    LoadCheck chk = lsq.disambiguate(&l, 5);
    ASSERT_EQ(chk.hold, LoadHold::UnknownAddress);
    lsq.subscribeHold(&l, chk.blocker, chk.hold);

    std::vector<ReadyRef> out;
    lsq.takeReadyHolds(5, out);
    EXPECT_TRUE(out.empty());

    // The store computes its address at cycle 5; visible from cycle 6.
    computeAddr(lsq, s, 6);
    lsq.takeReadyHolds(5, out);
    EXPECT_TRUE(out.empty());
    lsq.takeReadyHolds(6, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].inst, &l);
    EXPECT_EQ(out[0].seq, l.seq());
    // One-shot: nothing left pending.
    out.clear();
    lsq.takeReadyHolds(9, out);
    EXPECT_TRUE(out.empty());
}

TEST(LsqHolds, SubscriptionAfterSameCycleAddressComputationStillFires)
{
    // The store issues earlier in the same cycle as the load's attempt:
    // its release event has already fired when the load subscribes, so
    // the subscription must park directly on the pending list.
    Lsq lsq(8);
    DynInst s = store(1, 0x100);
    DynInst l = load(2, 0x100);
    lsq.insert(&s);
    lsq.insert(&l);
    l.setInIq(true);

    computeAddr(lsq, s, 6);  // issued at cycle 5, visible at 6
    LoadCheck chk = lsq.disambiguate(&l, 5);
    ASSERT_EQ(chk.hold, LoadHold::UnknownAddress);
    ASSERT_EQ(chk.blocker, &s);
    lsq.subscribeHold(&l, chk.blocker, chk.hold);

    std::vector<ReadyRef> out;
    lsq.takeReadyHolds(6, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].inst, &l);
}

TEST(LsqHolds, PartialHoldReleasesAtCommit)
{
    Lsq lsq(8);
    DynInst s = store(1, 0x104, 4);
    DynInst l = load(2, 0x100, 8);
    lsq.insert(&s);
    lsq.insert(&l);
    l.setInIq(true);

    computeAddr(lsq, s, 0);
    LoadCheck chk = lsq.disambiguate(&l, 5);
    ASSERT_EQ(chk.hold, LoadHold::PartialOverlap);
    lsq.subscribeHold(&l, chk.blocker, chk.hold);

    std::vector<ReadyRef> out;
    lsq.takeReadyHolds(20, out);
    EXPECT_TRUE(out.empty());  // address visibility does not release it

    lsq.remove(&s);  // commit
    lsq.takeReadyHolds(20, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].inst, &l);
}

TEST(LsqHolds, SquashedBlockerDropsItsSubscribers)
{
    Lsq lsq(8);
    DynInst s = store(2, 0x100);
    DynInst l = load(3, 0x100);
    lsq.insert(&s);
    lsq.insert(&l);
    l.setInIq(true);

    LoadCheck chk = lsq.disambiguate(&l, 5);
    lsq.subscribeHold(&l, chk.blocker, chk.hold);
    // Recovery kills the subscriber, then its blocker.
    lsq.squash(&l);
    lsq.squash(&s);

    std::vector<ReadyRef> out;
    lsq.takeReadyHolds(100, out);
    EXPECT_TRUE(out.empty());
}

TEST(LsqHolds, EachStoreReleasesOnlyItsOwnLoads)
{
    // Three loads held on two stores, parked interleaved on the one
    // held list: s1's unknown address holds l2 and l3, s4's partial
    // overlap holds l5.
    Lsq lsq(8);
    DynInst s1 = store(1, 0x100);
    DynInst l2 = load(2, 0x100);
    DynInst l3 = load(3, 0x108);
    DynInst s4 = store(4, 0x204, 4);
    DynInst l5 = load(5, 0x200, 8);
    for (DynInst *d : {&s1, &l2, &l3, &s4, &l5})
        lsq.insert(d);
    computeAddr(lsq, s4, 0);

    for (DynInst *l : {&l2, &l5, &l3}) {
        LoadCheck chk = lsq.disambiguate(l, 4);
        ASSERT_EQ(chk.blocker, l == &l5 ? &s4 : &s1) << l->seq();
        ASSERT_EQ(chk.hold, l == &l5 ? LoadHold::PartialOverlap
                                     : LoadHold::UnknownAddress);
        lsq.subscribeHold(l, chk.blocker, chk.hold);
    }

    // s1 computes its address at cycle 5, visible from 6: exactly its
    // own loads come back, at 6, in the order they were parked.
    computeAddr(lsq, s1, 6);
    std::vector<ReadyRef> out;
    lsq.takeReadyHolds(5, out);
    EXPECT_TRUE(out.empty());
    lsq.takeReadyHolds(6, out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].inst, &l2);
    EXPECT_EQ(out[0].seq, 2u);
    EXPECT_EQ(out[1].inst, &l3);
    EXPECT_EQ(out[1].seq, 3u);

    // l5 waits for s4's commit; s1's commit does not release it.
    out.clear();
    lsq.takeReadyHolds(100, out);
    lsq.remove(&s1);
    lsq.remove(&l2);
    lsq.remove(&l3);
    lsq.takeReadyHolds(100, out);
    EXPECT_TRUE(out.empty());
    lsq.remove(&s4);
    lsq.takeReadyHolds(100, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].inst, &l5);
    EXPECT_EQ(out[0].seq, 5u);
}

// --- statistics and invariants --------------------------------------------

TEST(Lsq, HoldStatsAccumulate)
{
    Lsq lsq(8);
    lsq.recordHold(LoadHold::Forward);
    lsq.recordHold(LoadHold::UnknownAddress);
    lsq.recordHold(LoadHold::UnknownAddress);
    lsq.recordHold(LoadHold::PartialOverlap);
    lsq.recordHold(LoadHold::Ready);  // not counted
    EXPECT_EQ(lsq.forwards(), 1u);
    EXPECT_EQ(lsq.unknownAddrHolds(), 2u);
    EXPECT_EQ(lsq.partialOverlapHolds(), 1u);
}

TEST(LsqDeath, OutOfOrderInsertPanics)
{
    Lsq lsq(8);
    DynInst a = load(5, 0x100), b = load(3, 0x200);
    lsq.insert(&a);
    EXPECT_DEATH(lsq.insert(&b), "program order");
}

TEST(LsqDeath, NonMemInsertPanics)
{
    Lsq lsq(8);
    DynInst d;
    d.si = StaticInst::alu(RegId::intReg(1), RegId::intReg(2),
                           RegId::intReg(3));
    d.setSeq(1);
    EXPECT_DEATH(lsq.insert(&d), "non-memory");
}

// --- randomized fuzz against a reverse-scan model ------------------------

/** Reference model: walk @p live (program order) youngest first; the
 *  nearest older store that is unknown at @p now or overlaps decides. */
LoadCheck
scanModel(const std::vector<DynInst *> &live, const DynInst *load, Cycle now)
{
    const Addr lo = load->si.effAddr, hi = lo + load->si.memSize;
    for (auto it = live.rbegin(); it != live.rend(); ++it) {
        const DynInst *st = *it;
        if (st->seq() >= load->seq() || !st->isStore())
            continue;
        if (!st->addrReady || st->addrReadyCycle > now)
            return {LoadHold::UnknownAddress, st};
        const Addr sLo = st->si.effAddr, sHi = sLo + st->si.memSize;
        if (sHi <= lo || hi <= sLo)
            continue;
        return {sLo <= lo && hi <= sHi ? LoadHold::Forward
                                       : LoadHold::PartialOverlap,
                st};
    }
    return {LoadHold::Ready, nullptr};
}

TEST(LsqFuzz, TableMatchesScanOnRandomStimulus)
{
    // Drive the LSQ with a pseudo-random stream of inserts, address
    // computations, commits and squashes, and require every resident
    // load to disambiguate exactly as the scan model says, blocker
    // included, at every step. End-to-end runs almost never reach a
    // Forward or PartialOverlap verdict, so this fuzz is their oracle:
    // it must check each verdict often.
    Lsq lsq(64);

    std::vector<DynInst> pool;
    pool.reserve(4096);
    std::vector<DynInst *> live;  // mirrors the queue, oldest first
    std::array<unsigned, 4> verdicts{};  // checks per LoadHold

    std::uint64_t rng = 0x2545f4914f6cdd1dull;
    auto next = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };

    InstSeqNum seq = 0;
    Cycle now = 10;
    for (int step = 0; step < 4000; ++step) {
        std::uint64_t r = next();
        switch (r % 8) {
          case 0:
          case 1:
          case 2: {  // insert a load or store
            if (pool.size() == pool.capacity() || lsq.full())
                break;
            Addr addr = 0x1000 + (next() % 96);  // dense: real conflicts
            unsigned size = 1u << (next() % 4);  // 1/2/4/8 bytes
            pool.push_back((next() & 1) ? store(++seq, addr, size)
                                        : load(++seq, addr, size));
            DynInst *d = &pool.back();
            lsq.insert(d);
            live.push_back(d);
            break;
          }
          case 3: {  // a random unknown store computes its address
            std::vector<DynInst *> unknown;
            for (DynInst *d : live)
                if (d->isStore() && !d->addrReady)
                    unknown.push_back(d);
            if (unknown.empty())
                break;
            DynInst *s = unknown[next() % unknown.size()];
            s->addrReady = true;
            s->addrReadyCycle = now + 1;
            lsq.onStoreAddrComputed(s);
            break;
          }
          case 4: {  // commit: remove the oldest entry
            if (live.empty())
                break;
            lsq.remove(live.front());
            live.erase(live.begin());
            break;
          }
          case 5: {  // branch recovery: squash a random suffix
            if ((next() & 3) != 0 || live.empty())
                break;
            InstSeqNum keep = live[next() % live.size()]->seq();
            while (!live.empty() && live.back()->seq() > keep) {
                lsq.squash(live.back());
                live.pop_back();
            }
            break;
          }
          default:
            ++now;
            break;
        }

        ASSERT_EQ(lsq.size(), live.size());
        for (DynInst *d : live) {
            if (!d->isLoad())
                continue;
            LoadCheck a = lsq.disambiguate(d, now);
            LoadCheck b = scanModel(live, d, now);
            ASSERT_EQ(a.hold, b.hold)
                << "load sn:" << d->seq() << " at cycle " << now;
            ASSERT_EQ(a.blocker, b.blocker)
                << "load sn:" << d->seq() << " at cycle " << now;
            ++verdicts[static_cast<std::size_t>(a.hold)];
        }
    }
    for (LoadHold h : {LoadHold::Ready, LoadHold::Forward,
                       LoadHold::UnknownAddress, LoadHold::PartialOverlap})
        EXPECT_GE(verdicts[static_cast<std::size_t>(h)], 100u)
            << "verdict " << static_cast<int>(h) << " barely checked";
}

} // namespace
} // namespace vpr
