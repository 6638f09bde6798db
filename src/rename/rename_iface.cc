#include "rename/rename_iface.hh"

#include "common/logging.hh"
#include "sim/params.hh"

namespace vpr
{

// renameSchemeName lives in factory.cc next to makeRenamer, so a
// scheme's name and constructor sit in one file.

void
RenameConfig::visitParams(ParamVisitor &v)
{
    v.uintParam("phys_regs", numPhysRegs,
                "physical registers per register file (paper: 48, 64 "
                "or 96)");
    v.uintParam("vp_regs", numVPRegs,
                "virtual-physical registers per file (must be >= NLR + "
                "window)");
    v.uintParam("nrr_int", nrrInt,
                "reserved int registers for the oldest instructions "
                "(VP schemes)");
    v.uintParam("nrr_fp", nrrFp,
                "reserved FP registers for the oldest instructions "
                "(VP schemes)");
}

namespace
{

/** Register-lifetime histogram range: [0, 255] cycles in 16 buckets;
 *  longer holds land in the overflow counter. Fixed regardless of the
 *  configuration so sweep cells share one export schema. */
constexpr std::uint64_t kLifetimeMax = 255;
constexpr std::size_t kLifetimeBuckets = 16;

/** Occupancy histograms always use 16 buckets so sweeps over the
 *  register-file size keep a stable schema. */
constexpr std::size_t kOccupancyBuckets = 16;

} // namespace

RenameManager::RenameManager(const RenameConfig &config)
    : cfg(config),
      lifetimeDist{stats::Distribution::evenBuckets(
                       "lifetime.int",
                       "cycles a physical int register stays allocated",
                       0, kLifetimeMax, kLifetimeBuckets),
                   stats::Distribution::evenBuckets(
                       "lifetime.fp",
                       "cycles a physical FP register stays allocated",
                       0, kLifetimeMax, kLifetimeBuckets)},
      occupancyDist{stats::Distribution::evenBuckets(
                        "occupancy.int",
                        "busy integer physical registers per cycle", 0,
                        config.numPhysRegs, kOccupancyBuckets),
                    stats::Distribution::evenBuckets(
                        "occupancy.fp",
                        "busy FP physical registers per cycle", 0,
                        config.numPhysRegs, kOccupancyBuckets)},
      pressureTrk{PressureTracker(config.numPhysRegs, &lifetimeDist[0]),
                  PressureTracker(config.numPhysRegs, &lifetimeDist[1])}
{
    VPR_ASSERT(cfg.numPhysRegs > kNumLogicalRegs,
               "need more physical than logical registers");
    for (std::size_t c = 0; c < kNumRegClasses; ++c)
        renameGroup.add(&meanHold[c]);
    for (std::size_t c = 0; c < kNumRegClasses; ++c)
        vpGroup.add(&lifetimeDist[c]);
    for (std::size_t c = 0; c < kNumRegClasses; ++c) {
        occupancyDist[c].countValuesUpTo(cfg.numPhysRegs);
        regfileGroup.add(&occupancyDist[c]);
    }
    for (std::size_t c = 0; c < kNumRegClasses; ++c)
        regfileGroup.add(&peakBusy[c]);
}

void
RenameManager::regStats(stats::StatRegistry &r)
{
    r.add(&renameGroup, [this] {
        for (std::size_t c = 0; c < kNumRegClasses; ++c)
            meanHold[c].set(pressureTrk[c].meanHoldCycles());
    });
    r.add(&vpGroup);
    r.add(&regfileGroup, [this] {
        for (std::size_t c = 0; c < kNumRegClasses; ++c)
            peakBusy[c].set(pressureTrk[c].peakBusy());
    });
}

} // namespace vpr
