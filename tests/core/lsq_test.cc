/**
 * @file
 * Unit tests for the LSQ and PA-8000-style disambiguation over its
 * program-order store list: behavioural cases, commit and squash at
 * the ends of the list, a randomized fuzz against a reverse-scan model
 * over the whole queue that lives only here, and a core-level test
 * that pins the cycles in which held loads issue. The queue keeps no
 * list of its loads, so the tests squash youngest first through
 * Lsq::squash, as the ROB walk does.
 */

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <vector>

#include "core/core.hh"
#include "core/lsq.hh"
#include "trace/builder.hh"

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

/** Mark a store's address computed, visible from @p cycle, as the
 *  issue stage does. */
void
computeAddr(DynInst &s, Cycle cycle)
{
    s.addrReady = true;
    s.addrReadyCycle = cycle;
}

/** The behavioural disambiguation cases. The single instantiation keeps
 *  the case names (Paths/LsqPaths.<case>/table) that they had when a
 *  store table answered them. */
class LsqPaths : public ::testing::TestWithParam<bool>
{
};

INSTANTIATE_TEST_SUITE_P(Paths, LsqPaths, ::testing::Values(false),
                         [](const auto &) { return "table"; });

// --- disambiguation verdicts ----------------------------------------------

TEST_P(LsqPaths, LoadWithNoOlderStoresIsReady)
{
    Lsq lsq(8);
    DynInst l = load(1, 0x100);
    lsq.insert(&l);
    EXPECT_EQ(lsq.disambiguate(&l, 10), LoadHold::Ready);
}

TEST_P(LsqPaths, LoadWaitsForUnknownStoreAddress)
{
    Lsq lsq(8);
    DynInst s = store(1, 0x100);
    DynInst l = load(2, 0x200);
    lsq.insert(&s);
    lsq.insert(&l);
    EXPECT_EQ(lsq.disambiguate(&l, 10), LoadHold::UnknownAddress);
    // Address computed but visible only in the future: still unknown at
    // cycle 10.
    computeAddr(s, 20);
    EXPECT_EQ(lsq.disambiguate(&l, 10), LoadHold::UnknownAddress);
    EXPECT_EQ(lsq.disambiguate(&l, 19), LoadHold::UnknownAddress);
    EXPECT_EQ(lsq.disambiguate(&l, 20), LoadHold::Ready);
}

TEST_P(LsqPaths, MatchingStoreForwards)
{
    Lsq lsq(8);
    DynInst s = store(1, 0x100);
    DynInst l = load(2, 0x100);
    lsq.insert(&s);
    lsq.insert(&l);
    computeAddr(s, 5);
    EXPECT_EQ(lsq.disambiguate(&l, 10), LoadHold::Forward);
}

TEST_P(LsqPaths, ContainedAccessForwards)
{
    Lsq lsq(8);
    DynInst s = store(1, 0x100, 8);
    DynInst l = load(2, 0x104, 4);  // inside the store's 8 bytes
    lsq.insert(&s);
    lsq.insert(&l);
    computeAddr(s, 0);
    EXPECT_EQ(lsq.disambiguate(&l, 10), LoadHold::Forward);
}

TEST_P(LsqPaths, PartialOverlapHolds)
{
    Lsq lsq(8);
    DynInst s = store(1, 0x104, 4);
    DynInst l = load(2, 0x100, 8);  // covers more than the store wrote
    lsq.insert(&s);
    lsq.insert(&l);
    computeAddr(s, 0);
    EXPECT_EQ(lsq.disambiguate(&l, 10), LoadHold::PartialOverlap);
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
    computeAddr(s1, 0);
    // Only the older store's address is known: the younger one blocks
    // even though s1 matches.
    EXPECT_EQ(lsq.disambiguate(&l, 10), LoadHold::UnknownAddress);
    computeAddr(s2, 0);
    // Forward (from s2, the youngest older store).
    EXPECT_EQ(lsq.disambiguate(&l, 10), LoadHold::Forward);
}

TEST_P(LsqPaths, YoungerStoresDoNotAffectLoad)
{
    Lsq lsq(8);
    DynInst l = load(1, 0x100);
    DynInst s = store(2, 0x100);
    lsq.insert(&l);
    lsq.insert(&s);
    EXPECT_EQ(lsq.disambiguate(&l, 10), LoadHold::Ready);
}

TEST_P(LsqPaths, DisjointStoresIgnored)
{
    Lsq lsq(8);
    DynInst s = store(1, 0x200);
    DynInst l = load(2, 0x100);
    lsq.insert(&s);
    lsq.insert(&l);
    computeAddr(s, 0);
    EXPECT_EQ(lsq.disambiguate(&l, 10), LoadHold::Ready);
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
    computeAddr(s1, 0);
    // The youngest decisive store's verdict is reported: s2 (younger,
    // unknown) decides although s1 matches; once s2 is known to be
    // disjoint, the scan passes it and s1 forwards.
    EXPECT_EQ(lsq.disambiguate(&l, 10), LoadHold::UnknownAddress);
    computeAddr(s2, 5);
    EXPECT_EQ(lsq.disambiguate(&l, 10), LoadHold::Forward);
}

// --- byte-range edge cases ------------------------------------------------

TEST_P(LsqPaths, PartialOverlapAcrossLineBoundary)
{
    // The store straddles the 16-byte boundary at 0x100; the load lives
    // above it and overlaps the store's tail without being contained.
    Lsq lsq(8);
    DynInst s = store(1, 0xFC, 8);  // [0xFC, 0x104)
    DynInst l = load(2, 0x100, 8);  // [0x100, 0x108)
    lsq.insert(&s);
    lsq.insert(&l);
    computeAddr(s, 0);
    EXPECT_EQ(lsq.disambiguate(&l, 10), LoadHold::PartialOverlap);
}

TEST_P(LsqPaths, ForwardAcrossLineBoundary)
{
    // Both the store and the contained load straddle the boundary.
    Lsq lsq(8);
    DynInst s = store(1, 0xFC, 8);  // [0xFC, 0x104)
    DynInst l = load(2, 0xFE, 4);   // [0xFE, 0x102) — contained
    lsq.insert(&s);
    lsq.insert(&l);
    computeAddr(s, 0);
    EXPECT_EQ(lsq.disambiguate(&l, 10), LoadHold::Forward);
}

TEST_P(LsqPaths, AdjacentLinesDoNotFalseAlias)
{
    // Neighbouring bytes in the same 16-byte line, no byte overlap: no
    // conflict.
    Lsq lsq(8);
    DynInst s = store(1, 0x100, 4);  // [0x100, 0x104)
    DynInst l = load(2, 0x104, 4);   // [0x104, 0x108): same line
    lsq.insert(&s);
    lsq.insert(&l);
    computeAddr(s, 0);
    EXPECT_EQ(lsq.disambiguate(&l, 10), LoadHold::Ready);
}

// --- commit and squash ----------------------------------------------------

TEST_P(LsqPaths, ForwardThenStoreSquashed)
{
    // A store forwards; branch recovery squashes it (and the load).
    // A fresh load at the same address must not see the dead store.
    Lsq lsq(8);
    DynInst s = store(2, 0x100);
    DynInst l = load(3, 0x100);
    lsq.insert(&s);
    lsq.insert(&l);
    computeAddr(s, 0);
    EXPECT_EQ(lsq.disambiguate(&l, 10), LoadHold::Forward);
    lsq.squash(&l);
    lsq.squash(&s);
    EXPECT_TRUE(lsq.empty());
    DynInst l2 = load(4, 0x100);
    lsq.insert(&l2);
    EXPECT_EQ(lsq.disambiguate(&l2, 12), LoadHold::Ready);
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
    computeAddr(s, 0);
    EXPECT_EQ(lsq.disambiguate(&l, 10), LoadHold::PartialOverlap);
    lsq.remove(&s);
    EXPECT_EQ(lsq.disambiguate(&l, 10), LoadHold::Ready);
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
    // The kept store still blocks a younger load until its address is
    // known; the squashed one, still unknown, no longer does.
    DynInst l = load(10, 0x300);
    lsq.insert(&l);
    EXPECT_EQ(lsq.disambiguate(&l, 10), LoadHold::UnknownAddress);
    computeAddr(b, 10);
    EXPECT_EQ(lsq.disambiguate(&l, 10), LoadHold::Ready);
}

TEST_P(LsqPaths, RemoveAtCommit)
{
    Lsq lsq(8);
    DynInst a = store(1, 0x100), b = load(2, 0x200);
    lsq.insert(&a);
    lsq.insert(&b);
    EXPECT_EQ(lsq.disambiguate(&b, 10), LoadHold::UnknownAddress);
    lsq.remove(&a);
    EXPECT_EQ(lsq.size(), 1u);
    EXPECT_EQ(lsq.disambiguate(&b, 10), LoadHold::Ready);
    lsq.remove(&b);
    EXPECT_TRUE(lsq.empty());
}

TEST(Lsq, MoreStoreAddressesThanEntriesWithoutALoad)
{
    // Every cycle the oldest stores commit and new ones compute their
    // addresses (visible the next cycle), with no load in between: far
    // more stores than the queue holds pass through its store list,
    // which wraps around many times.
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
            computeAddr(stores.back(), now + 1);
        }
    }
    EXPECT_GT(stores.size(), 4 * kCap);
    while (oldest < stores.size())
        lsq.remove(&stores[oldest++]);
    EXPECT_TRUE(lsq.empty());
    // Nothing stale is left: a load behind a fresh unknown store waits
    // on it, and after its address is known, forwards from it.
    DynInst s = store(++seq, 0x200), l = load(++seq, 0x200);
    lsq.insert(&s);
    lsq.insert(&l);
    EXPECT_EQ(lsq.disambiguate(&l, 13), LoadHold::UnknownAddress);
    computeAddr(s, 14);
    EXPECT_EQ(lsq.disambiguate(&l, 14), LoadHold::Forward);
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

TEST(LsqDeath, CommittingAStoreThatIsNotTheOldestPanics)
{
    Lsq lsq(8);
    DynInst s1 = store(1, 0x100), l = load(2, 0x200), s3 = store(3, 0x300);
    lsq.insert(&s1);
    lsq.insert(&l);
    lsq.insert(&s3);
    EXPECT_DEATH(lsq.remove(&s3), "not the oldest resident store");
}

TEST(LsqDeath, SquashingAStoreThatIsNotTheYoungestPanics)
{
    Lsq lsq(8);
    DynInst s1 = store(1, 0x100), l = load(2, 0x200), s3 = store(3, 0x300);
    lsq.insert(&s1);
    lsq.insert(&l);
    lsq.insert(&s3);
    EXPECT_DEATH(lsq.squash(&s1), "not the youngest resident store");
}

// --- randomized fuzz against a reverse-scan model ------------------------

/** Reference model: walk @p live, the whole queue in program order,
 *  youngest first; the nearest older store that is unknown at @p now
 *  or overlaps decides. */
LoadHold
scanModel(const std::vector<DynInst *> &live, const DynInst *load, Cycle now)
{
    const Addr lo = load->si.effAddr, hi = lo + load->si.memSize;
    for (auto it = live.rbegin(); it != live.rend(); ++it) {
        const DynInst *st = *it;
        if (st->seq() >= load->seq() || !st->isStore())
            continue;
        if (!st->addrReady || st->addrReadyCycle > now)
            return LoadHold::UnknownAddress;
        const Addr sLo = st->si.effAddr, sHi = sLo + st->si.memSize;
        if (sHi <= lo || hi <= sLo)
            continue;
        return sLo <= lo && hi <= sHi ? LoadHold::Forward
                                      : LoadHold::PartialOverlap;
    }
    return LoadHold::Ready;
}

TEST(LsqFuzz, MatchesScanModelOnRandomStimulus)
{
    // Drive the LSQ with a pseudo-random stream of inserts, address
    // computations, commits and squashes, and require every resident
    // load to disambiguate exactly as the scan model says, at every
    // step. End-to-end runs almost never reach a Forward or
    // PartialOverlap verdict, so this fuzz is their oracle: it must
    // check each verdict often.
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
            computeAddr(*unknown[next() % unknown.size()], now + 1);
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
            const LoadHold verdict = lsq.disambiguate(d, now);
            ASSERT_EQ(verdict, scanModel(live, d, now))
                << "load sn:" << d->seq() << " at cycle " << now;
            ++verdicts[static_cast<std::size_t>(verdict)];
        }
    }
    for (LoadHold h : {LoadHold::Ready, LoadHold::Forward,
                       LoadHold::UnknownAddress, LoadHold::PartialOverlap})
        EXPECT_GE(verdicts[static_cast<std::size_t>(h)], 100u)
            << "verdict " << static_cast<int>(h) << " barely checked";
}

// --- held loads in the core -----------------------------------------------

/** Per round, a store whose base register comes from a divide, and
 *  four loads behind it: one misses the store (an unknown-address
 *  hold), one matches it (a forward), one partly overlaps it (a
 *  partial-overlap hold until the store commits) and one shares the
 *  store's base, so it is first checked in the store's issue cycle,
 *  against the address computed earlier that cycle. */
std::vector<TraceRecord>
heldLoadTrace()
{
    TraceBuilder b;
    for (int round = 0; round < 3; ++round) {
        const Addr a = 0x100000 + 0x10000 * static_cast<Addr>(round);
        b.div(RegId::intReg(5), RegId::intReg(20), RegId::intReg(21));
        b.store(RegId::intReg(6), RegId::intReg(5), a);
        b.load(RegId::intReg(7), RegId::intReg(20), a + 0x1000);
        b.load(RegId::intReg(8), RegId::intReg(20), a);
        b.load(RegId::intReg(9), RegId::intReg(20), a + 4);
        b.load(RegId::intReg(10), RegId::intReg(5), a + 0x2000);
        b.alu(RegId::intReg(11), RegId::intReg(8), RegId::intReg(9));
    }
    return b.records();
}

TEST(LsqHolds, HeldLoadsIssueInTheirReleaseCycles)
{
    VectorTraceStream s(heldLoadTrace());
    CoreConfig cfg;
    cfg.fetch.wrongPath = WrongPathMode::Stall;
    Core core(s, cfg);

    // Issue cycle of every instruction, by sequence number.
    std::map<InstSeqNum, Cycle> issued;
    for (int cycle = 0; cycle < 2000 && core.tick(); ++cycle)
        for (std::size_t i = 0; i < core.rob().size(); ++i) {
            const DynInst &d = core.rob().at(i);
            if (d.issueCycle() != kNoCycle)
                issued.emplace(d.seq(), d.issueCycle());
        }
    ASSERT_FALSE(core.tick()) << "trace did not drain";

    std::vector<Cycle> stamps;
    for (const auto &[seq, cycle] : issued)
        stamps.push_back(cycle);
    // Recorded when each held load was parked on its blocking store and
    // released when that store's address became visible or it
    // committed, before held loads were retried every cycle.
    const std::vector<Cycle> expected = {
        3, 70,  71, 71,  72,  71,  132,  // round 0: div, store, loads, alu
        3, 70,  72, 72,  134, 73,  186,  // round 1
        70, 137, 138, 138, 188, 138, 240}; // round 2
    EXPECT_EQ(stamps, expected);

    // Hold episodes, not attempts: each round's four loads are held
    // once on the store's unknown address, and the partly overlapping
    // one once more, until the store commits.
    EXPECT_EQ(core.lsq().unknownAddrHolds(), 12u);
    EXPECT_EQ(core.lsq().partialOverlapHolds(), 3u);
    EXPECT_EQ(core.lsq().forwards(), 3u);
}

} // namespace
} // namespace vpr
