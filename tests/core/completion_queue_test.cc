/**
 * @file
 * Unit tests for the issue→complete CompletionQueue, the cycle-indexed
 * calendar (timing wheel). The randomized tests check it event for
 * event against a std::priority_queue model that lives only here; the
 * directed ones pin down the paths a short run may never hit (bucket
 * wrap-around, beyond-horizon overflow, late drains that skip cycles).
 */

#include <gtest/gtest.h>

#include <functional>
#include <queue>
#include <random>
#include <utility>
#include <vector>

#include "core/stages/latches.hh"

namespace vpr
{
namespace
{

/** A DynInst bound to a hot-pool row, shared by every scheduled event:
 *  the queue only copies inst->slot at schedule time, and these tests
 *  compare (when, seq) pop order, not instruction identity. */
struct CqFixture
{
    CqFixture() : hot(8)
    {
        hot.reset(0);
        inst.bindHot(&hot, 0);
    }

    InstHotPool hot;
    DynInst inst;
};

/** Reference model: a binary min-heap of (when, seq) pairs. */
class HeapModel
{
  public:
    using Event = std::pair<Cycle, InstSeqNum>;

    void schedule(Cycle when, InstSeqNum seq) { q.push({when, seq}); }
    bool hasDue(Cycle now) const { return !q.empty() && q.top().first <= now; }
    std::size_t pendingEvents() const { return q.size(); }

    Event
    popDue()
    {
        Event ev = q.top();
        q.pop();
        return ev;
    }

    bool
    pendingFor(InstSeqNum seq) const
    {
        for (auto copy = q; !copy.empty(); copy.pop())
            if (copy.top().second == seq)
                return true;
        return false;
    }

  private:
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>> q;
};

TEST(CompletionQueue, PopsInWhenThenSeqOrder)
{
    CqFixture f;
    CompletionQueue cq(16);
    // Same cycle out of seq order, plus a later cycle scheduled first.
    cq.schedule(5, 30, &f.inst);
    cq.schedule(3, 20, &f.inst);
    cq.schedule(3, 10, &f.inst);
    EXPECT_EQ(cq.pendingEvents(), 3u);

    EXPECT_FALSE(cq.hasDue(2));
    ASSERT_TRUE(cq.hasDue(3));
    EXPECT_EQ(cq.popDue().seq, 10u);
    ASSERT_TRUE(cq.hasDue(3));
    EXPECT_EQ(cq.popDue().seq, 20u);
    EXPECT_FALSE(cq.hasDue(3));
    EXPECT_FALSE(cq.hasDue(4));
    ASSERT_TRUE(cq.hasDue(5));
    EXPECT_EQ(cq.popDue().seq, 30u);
    EXPECT_EQ(cq.pendingEvents(), 0u);
}

TEST(CompletionQueue, WrapsAroundTheRingManyTimes)
{
    CqFixture f;
    // Horizon 4: every fourth cycle reuses a bucket.
    CompletionQueue cq(4);
    InstSeqNum seq = 0;
    for (Cycle now = 0; now < 100; ++now) {
        cq.schedule(now + 3, ++seq, &f.inst);
        if (cq.hasDue(now)) {
            CompletionEvent ev = cq.popDue();
            EXPECT_EQ(ev.when, now);
            EXPECT_FALSE(cq.hasDue(now)) << "one event per cycle";
        }
    }
    // Drain the tail: the last schedule was for cycle 99 + 3.
    for (Cycle now = 100; now < 103; ++now) {
        ASSERT_TRUE(cq.hasDue(now));
        cq.popDue();
    }
    EXPECT_EQ(cq.pendingEvents(), 0u);
}

TEST(CompletionQueue, BeyondHorizonEventsOverflowAndMigrateBack)
{
    CqFixture f;
    CompletionQueue cq(8);
    // Far beyond the 8-cycle ring: an unpipelined FP divide, say.
    cq.schedule(70, 1, &f.inst);
    cq.schedule(75, 2, &f.inst);
    cq.schedule(3, 3, &f.inst);
    EXPECT_EQ(cq.pendingEvents(), 3u);
    EXPECT_TRUE(cq.pendingFor(1));
    EXPECT_TRUE(cq.pendingFor(2));

    ASSERT_TRUE(cq.hasDue(3));
    EXPECT_EQ(cq.popDue().seq, 3u);
    // Nothing due while the wheel turns toward the overflow events.
    for (Cycle now = 4; now < 70; ++now)
        EXPECT_FALSE(cq.hasDue(now));
    ASSERT_TRUE(cq.hasDue(70));
    EXPECT_EQ(cq.popDue().seq, 1u);
    ASSERT_TRUE(cq.hasDue(75));
    EXPECT_EQ(cq.popDue().seq, 2u);
    EXPECT_EQ(cq.pendingEvents(), 0u);
}

TEST(CompletionQueue, LateDrainStillPopsInOrder)
{
    CqFixture f;
    CompletionQueue cq(16);
    cq.schedule(2, 1, &f.inst);
    cq.schedule(4, 2, &f.inst);
    cq.schedule(4, 3, &f.inst);
    // The caller skips straight to cycle 9: the wheel must not skip
    // the non-empty buckets in between.
    ASSERT_TRUE(cq.hasDue(9));
    CompletionEvent a = cq.popDue();
    EXPECT_EQ(a.when, 2u);
    EXPECT_EQ(a.seq, 1u);
    ASSERT_TRUE(cq.hasDue(9));
    EXPECT_EQ(cq.popDue().seq, 2u);
    ASSERT_TRUE(cq.hasDue(9));
    EXPECT_EQ(cq.popDue().seq, 3u);
    EXPECT_FALSE(cq.hasDue(9));
}

TEST(CompletionQueue, RandomizedCalendarMatchesHeap)
{
    // Drive the calendar and the heap model with an identical
    // randomized schedule/drain interleaving — bursty arrivals, idle
    // stretches, same-cycle completions, latencies past the horizon —
    // and demand the exact same pop sequence and pending count at
    // every step.
    CqFixture f;
    CompletionQueue cal(64);
    HeapModel heap;
    std::mt19937 rng(0xc0ffee);
    auto below = [&rng](unsigned n) { return rng() % n; };

    InstSeqNum seq = 0;
    Cycle now = 0;
    for (int step = 0; step < 4000; ++step) {
        // Bursty arrivals: usually a few, sometimes none.
        unsigned arrivals = below(10) < 7 ? below(4) : 0;
        for (unsigned i = 0; i < arrivals; ++i) {
            // 1..150 spans both in-ring and overflow latencies.
            Cycle when = now + 1 + below(150);
            ++seq;
            cal.schedule(when, seq, &f.inst);
            heap.schedule(when, seq);
        }
        ASSERT_EQ(cal.pendingEvents(), heap.pendingEvents());

        // Occasionally stall (skip draining) for a few cycles.
        Cycle stride = below(20) == 0 ? 1 + below(5) : 1;
        now += stride;
        while (heap.hasDue(now)) {
            ASSERT_TRUE(cal.hasDue(now));
            CompletionEvent a = cal.popDue();
            HeapModel::Event b = heap.popDue();
            ASSERT_EQ(a.when, b.first) << "step " << step;
            ASSERT_EQ(a.seq, b.second) << "step " << step;
        }
        ASSERT_FALSE(cal.hasDue(now));
    }
    // Drain what is left, still in lockstep.
    while (heap.pendingEvents() > 0) {
        ++now;
        while (heap.hasDue(now)) {
            ASSERT_TRUE(cal.hasDue(now));
            ASSERT_EQ(cal.popDue().seq, heap.popDue().second);
        }
    }
    EXPECT_EQ(cal.pendingEvents(), 0u);
}

TEST(CompletionQueue, PendingForAgreesBetweenCalendarAndHeap)
{
    CqFixture f;
    CompletionQueue cal(8);
    HeapModel heap;
    std::mt19937 rng(42);
    InstSeqNum seq = 0;
    Cycle now = 0;
    for (int step = 0; step < 200; ++step) {
        Cycle when = now + 1 + rng() % 40;
        ++seq;
        cal.schedule(when, seq, &f.inst);
        heap.schedule(when, seq);
        now += rng() % 3;
        while (heap.hasDue(now)) {
            ASSERT_TRUE(cal.hasDue(now));
            cal.popDue();
            heap.popDue();
        }
        for (InstSeqNum probe = seq > 10 ? seq - 10 : 1; probe <= seq;
             ++probe) {
            ASSERT_EQ(cal.pendingFor(probe), heap.pendingFor(probe))
                << "sn:" << probe;
        }
    }
}

} // namespace
} // namespace vpr
