/** @file Tests for the nine SPEC95-like benchmark kernels. */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "trace/kernels/kernels.hh"

#include "../support/expect_error.hh"

namespace vpr
{
namespace
{

TEST(Kernels, RegistryListsPaperBenchmarks)
{
    auto names = benchmarkNames();
    ASSERT_EQ(names.size(), 9u);
    // Paper order: integer first, then FP.
    EXPECT_EQ(names[0], "go");
    EXPECT_EQ(names[1], "li");
    EXPECT_EQ(names[2], "compress");
    EXPECT_EQ(names[3], "vortex");
    EXPECT_EQ(names[4], "apsi");
    EXPECT_EQ(names[5], "swim");
    EXPECT_EQ(names[6], "mgrid");
    EXPECT_EQ(names[7], "hydro2d");
    EXPECT_EQ(names[8], "wave5");
}

TEST(Kernels, FpFlagMatchesPaperGrouping)
{
    std::set<std::string> fp = {"apsi", "swim", "mgrid", "hydro2d",
                                "wave5"};
    for (const auto &info : benchmarkTable())
        EXPECT_EQ(info.isFp, fp.count(info.name) == 1) << info.name;
}

TEST(Kernels, AllKernelsValidate)
{
    for (const auto &name : benchmarkNames()) {
        KernelDesc k = makeKernel(name);
        EXPECT_EQ(k.name, name);
        k.validate();  // panics on malformed graphs
        EXPECT_FALSE(k.blocks.empty());
    }
}

TEST(Kernels, StreamsAreDeterministicPerSeed)
{
    for (const auto &name : benchmarkNames()) {
        auto a = makeBenchmarkStream(name);
        auto b = makeBenchmarkStream(name);
        for (int i = 0; i < 500; ++i) {
            auto ra = a->next();
            auto rb = b->next();
            ASSERT_TRUE(ra && rb);
            EXPECT_EQ(ra->pc, rb->pc) << name;
            EXPECT_EQ(ra->effAddr, rb->effAddr) << name;
            EXPECT_EQ(ra->taken, rb->taken) << name;
        }
    }
}

TEST(Kernels, DifferentSeedsChangeRandomBehaviour)
{
    auto a = makeBenchmarkStream("go", 1);
    auto b = makeBenchmarkStream("go", 2);
    int differ = 0;
    for (int i = 0; i < 2000; ++i) {
        auto ra = a->next();
        auto rb = b->next();
        if (ra->pc != rb->pc || ra->taken != rb->taken)
            ++differ;
    }
    EXPECT_GT(differ, 0);
}

/** Instruction-mix signature checks: FP benchmarks are FP-heavy, integer
 *  benchmarks contain no FP computation, every kernel loops forever. */
class KernelMixTest : public ::testing::TestWithParam<std::string>
{
  protected:
    std::map<OpClass, unsigned>
    histogram(unsigned n)
    {
        auto s = makeBenchmarkStream(GetParam());
        std::map<OpClass, unsigned> h;
        for (unsigned i = 0; i < n; ++i) {
            auto r = s->next();
            EXPECT_TRUE(r.has_value());
            ++h[r->op];
        }
        return h;
    }
};

TEST_P(KernelMixTest, MatchesClassSignature)
{
    const auto &info = benchmarkInfo(GetParam());
    auto h = histogram(20000);

    unsigned fpOps = h[OpClass::FpAdd] + h[OpClass::FpMult] +
                     h[OpClass::FpDiv] + h[OpClass::FpSqrt];
    unsigned branches = h[OpClass::Branch];
    unsigned mem = h[OpClass::Load] + h[OpClass::Store];

    EXPECT_GT(branches, 0u);
    EXPECT_GT(mem, 0u);
    if (info.isFp) {
        EXPECT_GT(fpOps, 20000u / 10) << "FP benchmark lacks FP ops";
    } else {
        EXPECT_EQ(fpOps, 0u) << "integer benchmark contains FP ops";
        EXPECT_GT(h[OpClass::IntAlu], 20000u / 4);
    }
}

TEST_P(KernelMixTest, LoadsHaveValidDestAndAddress)
{
    auto s = makeBenchmarkStream(GetParam());
    for (int i = 0; i < 5000; ++i) {
        auto r = s->next();
        if (r->isLoad()) {
            EXPECT_TRUE(r->dest.valid());
            EXPECT_NE(r->effAddr, 0u);
        }
        if (r->isStore()) {
            EXPECT_FALSE(r->dest.valid());
        }
    }
}

TEST_P(KernelMixTest, BranchDensityIsSane)
{
    auto h = histogram(20000);
    double frac = h[OpClass::Branch] / 20000.0;
    EXPECT_GT(frac, 0.02);
    EXPECT_LT(frac, 0.35);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, KernelMixTest,
                         ::testing::ValuesIn(benchmarkNames()),
                         [](const auto &info) { return info.param; });

TEST(Kernels, UnknownBenchmarkDies)
{
    EXPECT_VPR_ERROR(makeKernel("nonexistent"), "unknown benchmark");
}

TEST(Kernels, SketchesNonEmpty)
{
    for (const auto &info : benchmarkTable())
        EXPECT_FALSE(info.sketch.empty());
}

} // namespace
} // namespace vpr
