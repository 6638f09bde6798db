/**
 * @file
 * SMARTS-style statistical sampling: estimator accuracy against the
 * full detailed run, the functional-warming phase machine, parameter
 * validation, and the sampling-off invariant.
 */

#include <gtest/gtest.h>

#include "core/core.hh"
#include "sim/experiment.hh"
#include "trace/kernels/kernels.hh"

#include "../support/expect_error.hh"

namespace vpr
{
namespace
{

/** The accuracy configuration: 10 sampling periods of 16000
 *  instructions, each warming 1500 detailed instructions and measuring
 *  2000 — a 12.5% measured fraction, enough intervals for a Student-t
 *  confidence interval that means something, with windows wide enough
 *  to average over the kernels' loop phases (a 1000-inst window aliases
 *  against swim's loop period and biases the mean outside its own CI). */
SimConfig
accuracyConfig()
{
    SimConfig c = paperConfig();
    c.skipInsts = 4000;
    c.measureInsts = 160000;
    c.core.fetch.wrongPath = WrongPathMode::Stall;
    c.sampling.enable = true;
    c.sampling.periodInsts = 16000;
    c.sampling.warmupInsts = 1500;
    c.sampling.detailedInsts = 2000;
    return c;
}

class SamplingAccuracy : public ::testing::TestWithParam<const char *>
{
};

TEST_P(SamplingAccuracy, FullRunIpcInsideSampled95Ci)
{
    // The whole point of the estimator: the detailed run's IPC over the
    // same budget must fall inside the sampled mean's 95% confidence
    // interval, and the interval must be a useful one (nonzero, not
    // wider than the IPC scale itself).
    const char *kernel = GetParam();
    SimConfig sampled = accuracyConfig();
    SimConfig full = sampled;
    full.sampling.enable = false;

    auto s = runOne(kernel, sampled);
    auto f = runOne(kernel, full);

    const double mean = s.metrics.real("core.ipc.sampled.mean");
    const double ci95 = s.metrics.real("core.ipc.sampled.ci95");
    ASSERT_EQ(s.metrics.counter("core.ipc.sampled.intervals"), 10u);
    ASSERT_GT(mean, 0.0);
    ASSERT_GT(ci95, 0.0);
    EXPECT_LT(ci95, f.ipc());
    EXPECT_LE(std::abs(mean - f.ipc()), ci95)
        << kernel << ": sampled " << mean << " +/- " << ci95
        << " vs full " << f.ipc();
}

INSTANTIATE_TEST_SUITE_P(Kernels, SamplingAccuracy,
                         ::testing::Values("compress", "swim"));

TEST(Sampling, EstimatorMatchesManualIntervalMath)
{
    // core.ipc.sampled.mean must be exactly the mean of the interval
    // IPCs, i.e. what core.ipc itself reports after the fold (the
    // unweighted mean across intervals).
    SimConfig c = accuracyConfig();
    auto r = runOne("compress", c);
    EXPECT_DOUBLE_EQ(r.metrics.real("core.ipc.sampled.mean"),
                     r.metrics.real("core.ipc"));
    // stderr and ci95 are tied by the fixed t-critical for df = 9.
    const double se = r.metrics.real("core.ipc.sampled.stderr");
    const double ci = r.metrics.real("core.ipc.sampled.ci95");
    EXPECT_GT(se, 0.0);
    EXPECT_NEAR(ci / se, 2.262, 1e-9);
}

TEST(Sampling, FunctionalWarmingMatters)
{
    // Disabling functional warming turns fast-forward into a bare trace
    // skip: the detailed intervals then start from cold caches and BHT,
    // which must show up as a different (worse) cycle count.
    SimConfig warm = accuracyConfig();
    SimConfig cold = warm;
    cold.sampling.functionalWarming = false;
    auto w = runOne("compress", warm);
    auto cc = runOne("compress", cold);
    EXPECT_NE(w.cycles(), cc.cycles());
    EXPECT_LT(w.metrics.real("memory.cache_miss_rate"),
              cc.metrics.real("memory.cache_miss_rate"));
}

TEST(Sampling, SamplingOffExportsNoEstimator)
{
    // The estimator columns exist only in sampled runs — a full run's
    // schema (and therefore every golden CSV/JSON) is unchanged.
    SimConfig c = paperConfig();
    c.skipInsts = 1000;
    c.measureInsts = 10000;
    c.core.fetch.wrongPath = WrongPathMode::Stall;
    auto r = runOne("compress", c);
    EXPECT_FALSE(r.metrics.has("core.ipc.sampled.mean"));
    EXPECT_FALSE(r.metrics.has("core.ipc.sampled.stderr"));
    EXPECT_FALSE(r.metrics.has("core.ipc.sampled.ci95"));
    EXPECT_FALSE(r.metrics.has("core.ipc.sampled.intervals"));
}

TEST(Sampling, SampledRunStopsAtTraceEnd)
{
    // A finite stream shorter than the configured budget ends the run
    // after the intervals that fit; the estimator reports what was
    // actually measured.
    std::vector<TraceRecord> recs;
    for (int i = 0; i < 30000; ++i) {
        TraceRecord r;
        r.pc = 0x1000 + 4 * static_cast<Addr>(i % 64);
        r.op = OpClass::IntAlu;
        r.dest = RegId::intReg(static_cast<std::uint16_t>(1 + i % 8));
        r.src[0] = RegId::intReg(static_cast<std::uint16_t>(1 + (i + 1) % 8));
        recs.push_back(r);
    }
    VectorTraceStream stream(std::move(recs), false);
    SimConfig c = paperConfig();
    c.skipInsts = 0;
    c.measureInsts = 100000; // more than the trace holds
    c.core.fetch.wrongPath = WrongPathMode::Stall;
    c.sampling.enable = true;
    c.sampling.periodInsts = 10000;
    c.sampling.warmupInsts = 500;
    c.sampling.detailedInsts = 1000;
    Simulator sim(stream, c);
    auto r = sim.run();
    const std::uint64_t n =
        r.metrics.counter("core.ipc.sampled.intervals");
    EXPECT_GE(n, 1u);
    EXPECT_LE(n, 3u);
}

using SamplingDeath = ::testing::Test;

TEST(SamplingDeath, ZeroDetailedIntervalIsFatal)
{
    SimConfig c = paperConfig();
    c.sampling.enable = true;
    c.sampling.detailedInsts = 0;
    EXPECT_VPR_ERROR(c.validate(), "sim.sampling.detailed_insts must be >= 1");
}

TEST(SamplingDeath, WarmupPlusDetailedBeyondPeriodIsFatal)
{
    SimConfig c = paperConfig();
    c.sampling.enable = true;
    c.sampling.periodInsts = 1000;
    c.sampling.warmupInsts = 800;
    c.sampling.detailedInsts = 300;
    EXPECT_VPR_ERROR(c.validate(), "exceeds the period");
}

TEST(SamplingDeath, PeriodBeyondMeasureBudgetIsFatal)
{
    SimConfig c = paperConfig();
    c.measureInsts = 10000;
    c.sampling.enable = true;
    c.sampling.periodInsts = 20000;
    EXPECT_VPR_ERROR(c.validate(), "not even one interval fits");
}

} // namespace
} // namespace vpr
