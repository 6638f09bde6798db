/** @file Unit tests for the statistics package. */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "common/stats.hh"

namespace vpr::stats
{
namespace
{

TEST(Scalar, CountsAndResets)
{
    Scalar s("s", "a counter");
    EXPECT_EQ(s.value(), 0u);
    ++s;
    s += 5;
    EXPECT_EQ(s.value(), 6u);
    s.reset();
    EXPECT_EQ(s.value(), 0u);
}

TEST(Scalar, SetOverwrites)
{
    Scalar s("s", "gauge");
    s.set(42);
    EXPECT_EQ(s.value(), 42u);
}

TEST(Average, MeanOfSamples)
{
    Average a("a", "mean");
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    a.sample(1.0);
    a.sample(2.0);
    a.sample(3.0);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
    EXPECT_EQ(a.samples(), 3u);
    EXPECT_DOUBLE_EQ(a.total(), 6.0);
}

TEST(Distribution, BucketsSamples)
{
    Distribution d("d", "dist", 0, 99, 10);
    EXPECT_EQ(d.numBuckets(), 10u);
    d.sample(5);
    d.sample(15);
    d.sample(15);
    d.sample(95);
    EXPECT_EQ(d.bucketCount(0), 1u);
    EXPECT_EQ(d.bucketCount(1), 2u);
    EXPECT_EQ(d.bucketCount(9), 1u);
    EXPECT_EQ(d.samples(), 4u);
    EXPECT_DOUBLE_EQ(d.mean(), (5 + 15 + 15 + 95) / 4.0);
}

TEST(ReciprocalDivider, MatchesDivisionForEveryDividend)
{
    // The multiply-high quotient is exact below 2^32; larger dividends
    // and divisors outside [2, 2^32) take the division. Every divisor
    // up to 5000, a spread of larger ones, and edge plus random
    // dividends on both sides of the 2^32 limit.
    std::uint64_t rng = 0x2545f4914f6cdd1dull;
    auto next = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };
    const std::uint64_t two32 = std::uint64_t{1} << 32;
    std::vector<std::uint64_t> divisors;
    for (std::uint64_t d = 1; d <= 5000; ++d)
        divisors.push_back(d);
    for (int i = 0; i < 200; ++i)
        divisors.push_back(1 + next() % (two32 + 5));
    for (std::uint64_t d : {two32 - 1, two32, two32 + 1, ~std::uint64_t{0}})
        divisors.push_back(d);
    for (std::uint64_t d : divisors) {
        const ReciprocalDivider div(d);
        std::vector<std::uint64_t> xs = {0, 1, d - 1, d, d + 1,
                                         two32 - 1, two32, two32 + 1,
                                         ~std::uint64_t{0}};
        for (std::uint64_t k : {std::uint64_t{2}, std::uint64_t{1000},
                                (two32 - 1) / d})
            for (std::uint64_t x : {k * d - 1, k * d, k * d + 1})
                xs.push_back(x);
        for (int i = 0; i < 64; ++i) {
            xs.push_back(next() % two32);
            xs.push_back(next());
        }
        for (std::uint64_t x : xs)
            ASSERT_EQ(div.divide(x), x / d) << x << " / " << d;
    }
}

TEST(Distribution, BucketIndexMatchesDivisionForShippedWidths)
{
    // Every width evenBuckets() gives the shipped distributions: 16
    // buckets over [0, max] for every max a structure size or a latency
    // range takes, the sampled-IPC range (8000), plus offset origins.
    // Each value in range lands in bucket (v - min) / width.
    std::vector<std::uint64_t> maxima = {4095, 4096, 8000, 8191, 8192};
    for (std::uint64_t max = 0; max <= 1100; ++max)
        maxima.push_back(max);
    for (std::uint64_t lo : {0, 3}) {
        for (std::uint64_t max : maxima) {
            if (max < lo)
                continue;
            Distribution d =
                Distribution::evenBuckets("d", "dist", lo, max, 16);
            const std::uint64_t width = (max - lo + 1 + 15) / 16;
            std::vector<std::uint64_t> want(16, 0);
            for (std::uint64_t v = lo; v <= max; ++v) {
                d.sample(v);
                ++want[(v - lo) / width];
            }
            for (std::size_t i = 0; i < 16; ++i)
                ASSERT_EQ(d.bucketCount(i), want[i])
                    << "range [" << lo << ", " << max << "] bucket " << i;
        }
    }
}

TEST(Distribution, UnderOverflow)
{
    Distribution d("d", "dist", 10, 19, 5);
    d.sample(9);
    d.sample(25);
    d.sample(12);
    EXPECT_EQ(d.underflows(), 1u);
    EXPECT_EQ(d.overflows(), 1u);
    EXPECT_EQ(d.samples(), 3u);
    EXPECT_EQ(d.minSample(), 9u);
    EXPECT_EQ(d.maxSample(), 25u);
}

TEST(Distribution, ResetClearsEverything)
{
    Distribution d("d", "dist", 0, 9, 1);
    d.sample(3);
    d.reset();
    EXPECT_EQ(d.samples(), 0u);
    EXPECT_EQ(d.bucketCount(3), 0u);
}

TEST(StatGroup, ResetAllResetsMembers)
{
    StatGroup g("grp");
    Scalar s("s", "d");
    g.add(&s);
    s += 10;
    g.resetAll();
    EXPECT_EQ(s.value(), 0u);
}

TEST(DistributionDeath, BadRangePanics)
{
    EXPECT_DEATH(Distribution("d", "x", 10, 5, 1), "range inverted");
    EXPECT_DEATH(Distribution("d", "x", 0, 5, 0), "bucket size");
}

/** Collects visited triples as "name=value" strings, in order. */
class RecordingVisitor : public StatVisitor
{
  public:
    void
    visitUInt(SymId name, SymId desc, std::uint64_t v) override
    {
        auto &tab = SymbolTable::global();
        entries.push_back(tab.text(name) + "=" + std::to_string(v));
        descs.push_back(tab.text(desc));
    }

    void
    visitReal(SymId name, SymId desc, double v) override
    {
        auto &tab = SymbolTable::global();
        std::ostringstream os;
        os << tab.text(name) << "=" << v;
        entries.push_back(os.str());
        descs.push_back(tab.text(desc));
    }

    std::vector<std::string> entries;
    std::vector<std::string> descs;
};

TEST(SymbolTable, InternIsIdempotentAndStable)
{
    auto &tab = SymbolTable::global();
    const SymId a = tab.intern("symtab.test.alpha");
    const SymId b = tab.intern("symtab.test.beta");
    EXPECT_NE(a, 0u);
    EXPECT_NE(b, 0u);
    EXPECT_NE(a, b);
    // Same text, same id — interning is idempotent.
    EXPECT_EQ(tab.intern("symtab.test.alpha"), a);
    EXPECT_EQ(tab.text(a), "symtab.test.alpha");
    // text() references are stable even as the table grows.
    const std::string *before = &tab.text(a);
    for (int i = 0; i < 100; ++i)
        tab.intern("symtab.test.filler." + std::to_string(i));
    EXPECT_EQ(before, &tab.text(a));
}

TEST(SymbolTable, FindNeverInserts)
{
    auto &tab = SymbolTable::global();
    const std::size_t before = tab.size();
    EXPECT_EQ(tab.find("symtab.test.never-interned"), 0u);
    EXPECT_EQ(tab.size(), before);
    const SymId id = tab.intern("symtab.test.findable");
    EXPECT_EQ(tab.find("symtab.test.findable"), id);
}

TEST(Visitation, PrefixChangeRecomposesNames)
{
    // The per-stat symbol cache must be keyed by the visiting group's
    // prefix: the same stat visited under two groups (or directly)
    // reports different full names.
    Scalar s("n", "x");
    s.set(1);
    StatGroup g1("first"), g2("second");
    g1.add(&s);
    g2.add(&s);

    RecordingVisitor v;
    g1.visit(v);
    g2.visit(v);
    g1.visit(v);
    s.visit(v);  // direct visit reuses the last prefix set: "first"
    ASSERT_EQ(v.entries.size(), 4u);
    EXPECT_EQ(v.entries[0], "first.n=1");
    EXPECT_EQ(v.entries[1], "second.n=1");
    EXPECT_EQ(v.entries[2], "first.n=1");
    EXPECT_EQ(v.entries[3], "first.n=1");
}

TEST(Visitation, ScalarVisitsItsValue)
{
    Scalar s("count", "how many");
    s += 7;
    RecordingVisitor v;
    s.visit(v);
    ASSERT_EQ(v.entries.size(), 1u);
    EXPECT_EQ(v.entries[0], "count=7");
    EXPECT_EQ(v.descs[0], "how many");
}

TEST(Visitation, RealVisitsItsValue)
{
    Real r("rate", "a ratio");
    r.set(0.5);
    RecordingVisitor v;
    r.visit(v);
    ASSERT_EQ(v.entries.size(), 1u);
    EXPECT_EQ(v.entries[0], "rate=0.5");
}

TEST(Visitation, AverageVisitsMeanAndSamples)
{
    Average a("lat", "latency");
    a.sample(2.0);
    a.sample(4.0);
    RecordingVisitor v;
    a.visit(v);
    ASSERT_EQ(v.entries.size(), 2u);
    EXPECT_EQ(v.entries[0], "lat=3");
    EXPECT_EQ(v.entries[1], "lat.samples=2");
}

TEST(Visitation, DistributionVisitsSubValuesAndBuckets)
{
    Distribution d("occ", "occupancy", 0, 9, 1);
    d.sample(2);
    d.sample(4);
    RecordingVisitor v;
    d.visit(v);
    // Moments first, then the bucket geometry, then one hist[i] per
    // bucket.
    ASSERT_EQ(v.entries.size(), 9u + d.numBuckets());
    EXPECT_EQ(v.entries[0], "occ.mean=3");
    EXPECT_EQ(v.entries[1], "occ.stddev=1");
    EXPECT_EQ(v.entries[2], "occ.samples=2");
    EXPECT_EQ(v.entries[3], "occ.min=2");
    EXPECT_EQ(v.entries[4], "occ.max=4");
    EXPECT_EQ(v.entries[5], "occ.underflows=0");
    EXPECT_EQ(v.entries[6], "occ.overflows=0");
    EXPECT_EQ(v.entries[7], "occ.range_min=0");
    EXPECT_EQ(v.entries[8], "occ.bucket_size=1");
    EXPECT_EQ(v.entries[9], "occ.hist[0]=0");
    EXPECT_EQ(v.entries[11], "occ.hist[2]=1");
    EXPECT_EQ(v.entries[13], "occ.hist[4]=1");
}

/** Every exported sub-value of @p a equals @p b's, bit for bit. */
void
expectSameDistribution(const Distribution &a, const Distribution &b)
{
    EXPECT_EQ(a.samples(), b.samples());
    EXPECT_EQ(a.mean(), b.mean());
    EXPECT_EQ(a.stddev(), b.stddev());
    EXPECT_EQ(a.minSample(), b.minSample());
    EXPECT_EQ(a.maxSample(), b.maxSample());
    EXPECT_EQ(a.underflows(), b.underflows());
    EXPECT_EQ(a.overflows(), b.overflows());
    ASSERT_EQ(a.numBuckets(), b.numBuckets());
    for (std::size_t i = 0; i < a.numBuckets(); ++i)
        EXPECT_EQ(a.bucketCount(i), b.bucketCount(i)) << "bucket " << i;
}

TEST(Distribution, CountedFoldEqualsSamplingEachValue)
{
    // Values 0..47 over a [3, 40] range counted up to 20: the counts
    // cover underflows and low buckets, while values above 20 take
    // sample() (buckets, then overflows). Reads between samples fold
    // part of the counts at a time; reset() clears both paths.
    const auto make = [] {
        return Distribution::evenBuckets("occ", "occupancy", 3, 40, 16);
    };
    Distribution direct = make();
    Distribution counted = make();
    counted.countValuesUpTo(20);
    std::uint64_t x = 12345;
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 5000; ++i) {
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            const std::uint64_t v = (x >> 33) % 48;
            direct.sample(v);
            counted.sampleCounted(v);
            if (i % 997 == 0)
                expectSameDistribution(counted, direct);
        }
        expectSameDistribution(counted, direct);
        EXPECT_GT(counted.underflows(), 0u);
        EXPECT_GT(counted.overflows(), 0u);
        direct.reset();
        counted.reset();
        expectSameDistribution(counted, direct);
        EXPECT_EQ(counted.samples(), 0u);
    }
}

TEST(Distribution, StddevOfConstantIsZero)
{
    Distribution d("d", "dist", 0, 9, 1);
    d.sample(4);
    d.sample(4);
    d.sample(4);
    EXPECT_DOUBLE_EQ(d.stddev(), 0.0);
}

TEST(Distribution, StddevMatchesPopulationFormula)
{
    Distribution d("d", "dist", 0, 99, 10);
    // Samples 2 and 4: mean 3, population variance 1.
    d.sample(2);
    d.sample(4);
    EXPECT_DOUBLE_EQ(d.stddev(), 1.0);
    EXPECT_DOUBLE_EQ(Distribution("e", "x", 0, 9, 1).stddev(), 0.0);
}

TEST(Distribution, EvenBucketsFixesTheBucketCount)
{
    // The bucket count must not depend on the range — that is what
    // keeps export schemas identical across a structure-size sweep.
    for (std::uint64_t max : {47u, 48u, 63u, 96u, 100u, 255u}) {
        Distribution d = Distribution::evenBuckets("d", "x", 0, max, 16);
        EXPECT_EQ(d.numBuckets(), 16u) << "max=" << max;
        d.sample(max);  // the top value must land in a bucket
        EXPECT_EQ(d.overflows(), 0u) << "max=" << max;
        std::uint64_t total = 0;
        for (std::size_t i = 0; i < d.numBuckets(); ++i)
            total += d.bucketCount(i);
        EXPECT_EQ(total, 1u) << "max=" << max;
    }
}

TEST(Counter2D, CountsAndTotals)
{
    Counter2D c("m", "matrix", {"a", "b"}, {"x", "y", "z"});
    c.inc(0, 0);
    c.inc(0, 2, 5);
    c.inc(1, 1);
    EXPECT_EQ(c.count(0, 0), 1u);
    EXPECT_EQ(c.count(0, 2), 5u);
    EXPECT_EQ(c.rowTotal(0), 6u);
    EXPECT_EQ(c.colTotal(1), 1u);
    EXPECT_EQ(c.total(), 7u);
    c.reset();
    EXPECT_EQ(c.total(), 0u);
}

TEST(Counter2D, VisitsEveryLabelledCell)
{
    Counter2D c("m", "matrix", {"a", "b"}, {"x", "y"});
    c.inc(1, 0, 3);
    RecordingVisitor v;
    c.visit(v);
    ASSERT_EQ(v.entries.size(), 4u);
    EXPECT_EQ(v.entries[0], "m.a.x=0");
    EXPECT_EQ(v.entries[1], "m.a.y=0");
    EXPECT_EQ(v.entries[2], "m.b.x=3");
    EXPECT_EQ(v.entries[3], "m.b.y=0");
}

TEST(Visitation, NameMemoSeparatesTypesAndShapes)
{
    // Composed names are memoised process-wide by (prefix, name, type,
    // shape). Stats that share a group prefix and a name but differ in
    // type or shape must each get their own name list, whichever of
    // them binds first.
    Distribution wide = Distribution::evenBuckets("s", "d", 0, 99, 4);
    Distribution narrow = Distribution::evenBuckets("s", "d", 0, 99, 2);
    Average avg("s", "a");
    Counter2D rowsAb("s", "c", {"a", "b"}, {"x"});
    Counter2D rowsBa("s", "c", {"b", "a"}, {"x"});
    std::vector<StatGroup> groups(5, StatGroup("memo"));
    groups[0].add(&wide);
    groups[1].add(&narrow);
    groups[2].add(&avg);
    groups[3].add(&rowsAb);
    groups[4].add(&rowsBa);

    RecordingVisitor v;
    for (const StatGroup &g : groups)
        g.visit(v);
    ASSERT_EQ(v.entries.size(), (9u + 4u) + (9u + 2u) + 2u + 2u + 2u);
    EXPECT_EQ(v.entries[12], "memo.s.hist[3]=0");
    EXPECT_EQ(v.entries[13], "memo.s.mean=0");
    EXPECT_EQ(v.entries[23], "memo.s.hist[1]=0");
    EXPECT_EQ(v.entries[24], "memo.s=0");
    EXPECT_EQ(v.entries[25], "memo.s.samples=0");
    EXPECT_EQ(v.entries[26], "memo.s.a.x=0");
    EXPECT_EQ(v.entries[28], "memo.s.b.x=0");
    EXPECT_EQ(v.entries[29], "memo.s.a.x=0");
}

TEST(Registry, VisitRunsUpdateHooksInRegistrationOrder)
{
    StatRegistry reg;
    StatGroup g1("one"), g2("two");
    Scalar s1("n", "x"), s2("n", "x");
    Real derived("sum", "derived from both scalars");
    g1.add(&s1);
    g2.add(&s2);
    g2.add(&derived);
    s1.set(2);
    s2.set(3);
    reg.add(&g1);
    reg.add(&g2, [&] {
        derived.set(static_cast<double>(s1.value() + s2.value()));
    });

    RecordingVisitor v;
    reg.visit(v);
    ASSERT_EQ(v.entries.size(), 3u);
    EXPECT_EQ(v.entries[0], "one.n=2");
    EXPECT_EQ(v.entries[1], "two.n=3");
    EXPECT_EQ(v.entries[2], "two.sum=5");
}

TEST(Registry, ResetUsesCustomHookOrDefaultsToResetAll)
{
    StatRegistry reg;
    StatGroup g1("one"), g2("two");
    Scalar s1("n", "x"), s2("n", "x");
    g1.add(&s1);
    g2.add(&s2);
    s1.set(7);
    s2.set(9);
    bool customRan = false;
    reg.add(&g1);
    reg.add(&g2, {}, [&] { customRan = true; });  // keeps s2's value

    reg.reset();
    EXPECT_EQ(s1.value(), 0u);
    EXPECT_EQ(s2.value(), 9u);
    EXPECT_TRUE(customRan);
}

TEST(Visitation, GroupPrefixesAndPreservesOrder)
{
    StatGroup g("core");
    Scalar s1("cycles", "c");
    Scalar s2("committed", "i");
    Real r("ipc", "rate");
    g.add(&s1);
    g.add(&s2);
    g.add(&r);
    s1.set(10);
    s2.set(20);
    r.set(2.0);

    RecordingVisitor v;
    g.visit(v);
    ASSERT_EQ(v.entries.size(), 3u);
    EXPECT_EQ(v.entries[0], "core.cycles=10");
    EXPECT_EQ(v.entries[1], "core.committed=20");
    EXPECT_EQ(v.entries[2], "core.ipc=2");
}

} // namespace
} // namespace vpr::stats
