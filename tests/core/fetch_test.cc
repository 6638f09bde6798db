/** @file Unit tests for the fetch unit. */

#include <gtest/gtest.h>

#include "core/fetch.hh"
#include "memory/cache.hh"
#include "trace/builder.hh"

namespace vpr
{
namespace
{

FetchConfig
cfgStall()
{
    FetchConfig c;
    c.wrongPath = WrongPathMode::Stall;
    return c;
}

FetchConfig
cfgSynth()
{
    FetchConfig c;
    c.wrongPath = WrongPathMode::Synthesize;
    return c;
}

TEST(Fetch, FetchesUpToWidthPerCycle)
{
    TraceBuilder b;
    for (int i = 0; i < 20; ++i)
        b.nop();
    auto stream = b.stream();
    FetchUnit f(*stream, cfgStall());
    f.tick(1);
    int n = 0;
    while (f.hasInst()) {
        f.pop();
        ++n;
    }
    EXPECT_EQ(n, 8);
}

TEST(Fetch, GroupEndsAtPredictedTakenBranch)
{
    TraceBuilder b;
    b.nop();
    b.branch(RegId::intReg(1), true, 0x9000);  // predicted taken (init)
    b.nop();
    b.nop();
    auto stream = b.stream();
    FetchUnit f(*stream, cfgStall());
    f.tick(1);
    int n = 0;
    while (f.hasInst()) {
        f.pop();
        ++n;
    }
    EXPECT_EQ(n, 2);  // nop + branch only; rest next cycle
    f.tick(2);
    EXPECT_TRUE(f.hasInst());
}

TEST(Fetch, MispredictMarksBranchAndStalls)
{
    TraceBuilder b;
    // 2-bit counters initialize weakly taken: a not-taken branch
    // mispredicts on first sight.
    b.branch(RegId::intReg(1), false, 0x9000);
    b.nop();
    auto stream = b.stream();
    FetchUnit f(*stream, cfgStall());
    f.tick(1);
    ASSERT_TRUE(f.hasInst());
    auto fi = f.pop();
    EXPECT_TRUE(fi.mispredictedBranch);
    EXPECT_TRUE(f.awaitingResolve());
    EXPECT_FALSE(f.hasInst());
    // Stall mode: no instructions while waiting.
    f.tick(2);
    EXPECT_FALSE(f.hasInst());
    // Resolution redirects with the configured delay.
    f.resolveBranch(10);
    f.tick(10);  // still within redirect delay
    EXPECT_FALSE(f.hasInst());
    f.tick(11);
    ASSERT_TRUE(f.hasInst());
    EXPECT_TRUE(f.pop().si.isNop());
}

TEST(Fetch, SynthesizeModeProducesWrongPath)
{
    TraceBuilder b;
    b.branch(RegId::intReg(1), false, 0x9000);
    b.nop();
    auto stream = b.stream();
    FetchUnit f(*stream, cfgSynth());
    f.tick(1);
    f.pop();  // the mispredicted branch
    f.tick(2);
    ASSERT_TRUE(f.hasInst());
    auto wp = f.pop();
    EXPECT_TRUE(wp.wrongPath);
    EXPECT_FALSE(wp.si.isMem());
    EXPECT_FALSE(wp.si.isBranch());
    EXPECT_GT(f.fetchedWrongPath(), 0u);
}

TEST(Fetch, ResolveClearsWrongPathBuffer)
{
    TraceBuilder b;
    b.branch(RegId::intReg(1), false, 0x9000);
    b.nop();
    auto stream = b.stream();
    FetchUnit f(*stream, cfgSynth());
    f.tick(1);
    f.pop();
    f.tick(2);  // buffer fills with wrong path
    f.resolveBranch(5);
    EXPECT_FALSE(f.hasInst());
    f.tick(7);
    ASSERT_TRUE(f.hasInst());
    EXPECT_FALSE(f.peek().wrongPath);
}

TEST(Fetch, CountsBranchesAndMispredicts)
{
    TraceBuilder b;
    // Loop-like: taken branches are predicted correctly from the start.
    for (int i = 0; i < 10; ++i)
        b.branch(RegId::intReg(1), true, 0x1000);
    auto stream = b.stream();
    FetchUnit f(*stream, cfgStall());
    for (Cycle c = 1; c <= 20; ++c) {
        f.tick(c);
        while (f.hasInst())
            f.pop();
    }
    EXPECT_EQ(f.branches(), 10u);
    EXPECT_EQ(f.mispredicts(), 0u);
    EXPECT_EQ(f.fetchedReal(), 10u);
}

TEST(Fetch, DoneAfterTraceExhausted)
{
    TraceBuilder b;
    b.nop();
    auto stream = b.stream();
    FetchUnit f(*stream, cfgStall());
    EXPECT_FALSE(f.done());
    f.tick(1);
    f.pop();
    f.tick(2);
    EXPECT_TRUE(f.done());
}

TEST(Fetch, BufferCapacityBoundsFetch)
{
    TraceBuilder b;
    for (int i = 0; i < 64; ++i)
        b.nop();
    auto stream = b.stream();
    FetchConfig cfg = cfgStall();
    cfg.bufferCapacity = 10;
    FetchUnit f(*stream, cfg);
    f.tick(1);
    f.tick(2);  // would exceed capacity
    int n = 0;
    while (f.hasInst()) {
        f.pop();
        ++n;
    }
    EXPECT_EQ(n, 10);
}

/** Records of numberedTrace() sit at kNumberedBase + 4 * index. */
constexpr Addr kNumberedBase = 0x1000;

/** A trace of @p n nops, each identified by its pc. */
std::unique_ptr<VectorTraceStream>
numberedTrace(std::size_t n)
{
    TraceBuilder b(kNumberedBase);
    for (std::size_t i = 0; i < n; ++i)
        b.nop();
    return b.stream();
}

/** Run one detailed fetch cycle and return the index of the first
 *  record it delivered; empties the fetch buffer. */
std::uint64_t
firstFetched(FetchUnit &f, Cycle now)
{
    f.tick(now);
    EXPECT_TRUE(f.hasInst());
    const std::uint64_t index = (f.peek().si.pc - kNumberedBase) / 4;
    while (f.hasInst())
        f.pop();
    return index;
}

TEST(Fetch, FastForwardAfterReadAheadRetiresTheNextRecords)
{
    // Detailed fetch reads the trace ahead of what it delivers; a
    // fast-forward, warming or not, must retire exactly the next n
    // records (the read-ahead first), and detailed fetch resumes at the
    // record after them.
    for (bool warm : {true, false}) {
        for (std::size_t n : {1, 3, 23, 24, 25, 100, 1000}) {
            auto stream = numberedTrace(2000);
            FetchUnit f(*stream, cfgStall());
            NonBlockingCache cache;
            ASSERT_EQ(firstFetched(f, 1), 0u);  // records 0..7
            Cycle now = 10;
            const std::size_t done = warm
                ? f.warmFunctional(n, cache, now)
                : f.skipFunctional(n);
            EXPECT_EQ(done, n) << "warm=" << warm << " n=" << n;
            if (warm) {
                EXPECT_EQ(now, 10 + n);
            }
            EXPECT_EQ(firstFetched(f, now + 1), 8 + n)
                << "warm=" << warm << " n=" << n;
        }
    }
}

TEST(Fetch, FastForwardPastTheTraceEndStopsAtItsLastRecord)
{
    // 20 records: detailed fetch delivers 8 and holds the other 12 in
    // its read-ahead; a longer fast-forward retires exactly those 12.
    for (bool warm : {true, false}) {
        auto stream = numberedTrace(20);
        FetchUnit f(*stream, cfgStall());
        NonBlockingCache cache;
        ASSERT_EQ(firstFetched(f, 1), 0u);
        Cycle now = 10;
        const std::size_t done = warm ? f.warmFunctional(50, cache, now)
                                      : f.skipFunctional(50);
        EXPECT_EQ(done, 12u) << "warm=" << warm;
        f.tick(now + 1);
        EXPECT_FALSE(f.hasInst());
        EXPECT_TRUE(f.done());
    }
}

TEST(FetchDeath, ResolveWithoutMispredictPanics)
{
    TraceBuilder b;
    b.nop();
    auto stream = b.stream();
    FetchUnit f(*stream, cfgStall());
    EXPECT_DEATH(f.resolveBranch(1), "no outstanding");
}

} // namespace
} // namespace vpr
