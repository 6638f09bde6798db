#include "sim/config.hh"

#include "common/intmath.hh"
#include "common/logging.hh"
#include "sim/params.hh"

namespace vpr
{

void
SimConfig::setPhysRegs(std::uint16_t numPhysRegs, int nrr)
{
    core.rename.numPhysRegs = numPhysRegs;
    core.rename.numVPRegs =
        static_cast<std::uint16_t>(kNumLogicalRegs + core.robSize);
    std::uint16_t maxNrr =
        static_cast<std::uint16_t>(numPhysRegs - kNumLogicalRegs);
    std::uint16_t v = nrr < 0 ? maxNrr : static_cast<std::uint16_t>(nrr);
    core.rename.nrrInt = v;
    core.rename.nrrFp = v;
}

void
SimConfig::setNrr(std::uint16_t nrr)
{
    core.rename.nrrInt = nrr;
    core.rename.nrrFp = nrr;
}

void
SimConfig::setScheme(RenameScheme scheme)
{
    core.scheme = scheme;
}

void
SimConfig::validate() const
{
    // Per-key bounds first, so every message names the key at fault.
    // Lower bounds are what the components assert or need to make
    // progress; upper bounds cap every value that sizes an allocation
    // or a stall (the 65,535-cycle memory stall stays well inside
    // Core's deadlock threshold).
    constexpr std::uint64_t kMaxWidth = 64;   // widths, ports, FUs
    constexpr std::uint64_t kMaxQueue = 4096; // ROB/IQ/LSQ, fetch buffer
    constexpr std::uint64_t kMaxLatency = 1024;
    constexpr std::uint64_t kMaxStall = 65535;
    const CacheConfig &c = core.cache;
    const struct
    {
        const char *key;
        std::uint64_t value, lo, hi;
    } bounds[] = {
        {"core.rename_width", core.renameWidth, 1, kMaxWidth},
        {"core.issue_width", core.issueWidth, 1, kMaxWidth},
        {"core.commit_width", core.commitWidth, 1, kMaxWidth},
        {"core.reg_read_ports", core.regReadPorts, kMaxSrcRegs, kMaxWidth},
        {"core.reg_write_ports", core.regWritePorts, 1, kMaxWidth},
        {"core.cache_ports", core.cachePorts, 1, kMaxWidth},
        {"core.fu.simple_int", core.fu.simpleInt, 1, kMaxWidth},
        {"core.fu.complex_int", core.fu.complexInt, 1, kMaxWidth},
        {"core.fu.eff_addr", core.fu.effAddr, 1, kMaxWidth},
        {"core.fu.simple_fp", core.fu.simpleFp, 1, kMaxWidth},
        {"core.fu.fp_mul", core.fu.fpMul, 1, kMaxWidth},
        {"core.fu.fp_div_sqrt", core.fu.fpDivSqrt, 1, kMaxWidth},
        {"core.fetch.fetch_width", core.fetch.fetchWidth, 1, kMaxWidth},
        {"core.rob_size", core.robSize, 1, kMaxQueue},
        {"core.iq_size", core.iqSize, 1, kMaxQueue},
        {"core.lsq_size", core.lsqSize, 1, kMaxQueue},
        {"core.fetch.buffer_capacity", core.fetch.bufferCapacity,
         core.fetch.fetchWidth, kMaxQueue},
        {"core.fetch.bht_entries", core.fetch.bhtEntries, 1, 1u << 20},
        {"core.fetch.redirect_delay", core.fetch.redirectDelay, 0,
         kMaxLatency},
        {"core.cache.size_bytes", c.sizeBytes, 1, 64u << 20},
        {"core.cache.line_size", c.lineSize, 1, 4096},
        {"core.cache.assoc", c.assoc, 1, 64},
        {"core.cache.hit_latency", c.hitLatency, 0, kMaxLatency},
        {"core.cache.num_mshrs", c.numMshrs, 1, 1024},
        {"core.cache.bus_occupancy", c.busOccupancy, 1, kMaxStall},
    };
    for (const auto &b : bounds)
        if (b.value < b.lo || b.value > b.hi)
            VPR_FATAL(b.key, " (", b.value, ") must be in [", b.lo, ", ",
                      b.hi, "]");
    if (!isPowerOf2(core.fetch.bhtEntries))
        VPR_FATAL("core.fetch.bht_entries (", core.fetch.bhtEntries,
                  ") must be a power of two");
    if (!isPowerOf2(c.lineSize))
        VPR_FATAL("core.cache.line_size (", c.lineSize,
                  ") must be a power of two");
    const std::uint64_t way = std::uint64_t{c.lineSize} * c.assoc;
    if (c.sizeBytes % way != 0 || !isPowerOf2(c.sizeBytes / way))
        VPR_FATAL("core.cache.size_bytes (", c.sizeBytes,
                  ") must be a power-of-two number of sets of "
                  "core.cache.line_size * core.cache.assoc (", way,
                  ") bytes");
    const std::uint64_t stall =
        c.missPenalty + std::uint64_t{c.numMshrs} * c.busOccupancy;
    if (stall > kMaxStall)
        VPR_FATAL("core.cache.miss_penalty + core.cache.num_mshrs * "
                  "core.cache.bus_occupancy (",
                  stall, " cycles) must be <= ", kMaxStall);

    const RenameConfig &r = core.rename;
    if (r.numPhysRegs <= kNumLogicalRegs)
        VPR_FATAL("numPhysRegs (", r.numPhysRegs, ") must exceed the ",
                  kNumLogicalRegs, " logical registers");
    if (isVirtualPhysical(core.scheme)) {
        if (r.numVPRegs < kNumLogicalRegs + core.robSize)
            VPR_FATAL("numVPRegs (", r.numVPRegs, ") must be >= NLR + "
                      "window (", kNumLogicalRegs + core.robSize,
                      ") so decode never starves for tags");
        if (r.nrrInt < 1 || r.nrrFp < 1)
            VPR_FATAL("NRR must be >= 1 (deadlock avoidance)");
        if (r.nrrInt > r.numPhysRegs - kNumLogicalRegs ||
            r.nrrFp > r.numPhysRegs - kNumLogicalRegs)
            VPR_FATAL("NRR must be <= NPR - NLR = ",
                      r.numPhysRegs - kNumLogicalRegs);
    }
    if (core.iqSize < core.robSize)
        VPR_FATAL("iqSize must be >= robSize (unified queue)");
    if (core.scheme == RenameScheme::ConventionalEarlyRelease &&
        core.fetch.wrongPath != WrongPathMode::Stall)
        VPR_FATAL("core.scheme=", renameSchemeName(core.scheme),
                  " requires core.fetch.wrong_path=stall (got ",
                  wrongPathModeName(core.fetch.wrongPath),
                  "): early release cannot squash a wrong-path "
                  "superseder");
    if (sampling.enable) {
        if (sampling.detailedInsts == 0)
            VPR_FATAL("sampling: zero-length detailed interval "
                      "(sim.sampling.detailed_insts must be >= 1)");
        if (sampling.warmupInsts + sampling.detailedInsts >
            sampling.periodInsts)
            VPR_FATAL("sampling: warm-up (", sampling.warmupInsts,
                      ") plus detailed interval (", sampling.detailedInsts,
                      ") exceeds the period (", sampling.periodInsts, ")");
        if (sampling.periodInsts > measureInsts)
            VPR_FATAL("sampling: period (", sampling.periodInsts,
                      ") exceeds the measurement budget (", measureInsts,
                      "); not even one interval fits");
    }
}

void
SamplingConfig::visitParams(ParamVisitor &v)
{
    v.boolParam("enable", enable,
                "alternate fast-forward and detailed intervals instead "
                "of measuring every instruction (SMARTS-style sampling)");
    v.uintParam("period_insts", periodInsts,
                "instructions per sampling period (fast-forward + "
                "warm-up + detailed)");
    v.uintParam("warmup_insts", warmupInsts,
                "detailed-but-unmeasured instructions before each "
                "measurement interval");
    v.uintParam("detailed_insts", detailedInsts,
                "measured detailed instructions per period");
    v.boolParam("functional_warming", functionalWarming,
                "caches and the BHT observe every fast-forwarded access "
                "(off = bare trace skip, cold-state sampling)");
}

void
SimConfig::visitParams(ParamVisitor &v)
{
    v.uintParam("skip_insts", skipInsts,
                "committed instructions to skip before measuring "
                "(cache/BHT warm-up)");
    v.uintParam("measure_insts", measureInsts,
                "committed instructions to measure");
    v.uintParam("seed", seed,
                "workload seed (0 = the kernel's default stream)");
    v.pushGroup("sim");
    v.pushGroup("sampling");
    sampling.visitParams(v);
    v.popGroup();
    v.popGroup();
    v.pushGroup("core");
    core.visitParams(v);
    v.popGroup();

    // Convenience parameters: one knob applying the paper's
    // cross-parameter sizing rules. Settable and sweepable like any
    // other parameter; exports always carry the underlying values.
    v.derivedUInt(
        "core.rename.regfile_size",
        "register-file sizing rule: sets phys_regs, sizes the VP pool "
        "to NLR + window, and sets NRR to its maximum (NPR - NLR)",
        std::numeric_limits<std::uint16_t>::max(),
        [this] { return std::to_string(core.rename.numPhysRegs); },
        [this](std::uint64_t n) {
            setPhysRegs(static_cast<std::uint16_t>(n));
            return true;
        });
    v.derivedUInt(
        "core.rename.nrr",
        "sets both reserved-register counts (nrr_int and nrr_fp), as "
        "in the paper's experiments",
        std::numeric_limits<std::uint16_t>::max(),
        [this] { return std::to_string(core.rename.nrrInt); },
        [this](std::uint64_t n) {
            setNrr(static_cast<std::uint16_t>(n));
            return true;
        });
    v.derivedUInt(
        "core.window",
        "window sizing rule: sets rob_size, iq_size and lsq_size "
        "together and re-derives vp_regs and NRR (= max) from the new "
        "window",
        std::numeric_limits<std::uint32_t>::max(),
        [this] { return std::to_string(core.robSize); },
        [this](std::uint64_t n) {
            core.robSize = static_cast<std::size_t>(n);
            core.iqSize = static_cast<std::size_t>(n);
            core.lsqSize = static_cast<std::size_t>(n);
            setPhysRegs(core.rename.numPhysRegs);
            return true;
        });
}

SimConfig
paperConfig()
{
    SimConfig sc;
    // CoreConfig defaults already encode section 4.1; make the
    // dependent sizing explicit.
    sc.setPhysRegs(64, 32);
    return sc;
}

SimConfig
driverConfig()
{
    SimConfig sc = paperConfig();
    sc.skipInsts = 20000;
    sc.measureInsts = 200000;
    // Trace-driven methodology: fetch stalls on a detected
    // misprediction, as in the paper's ATOM-based framework.
    sc.core.fetch.wrongPath = WrongPathMode::Stall;
    return sc;
}

} // namespace vpr
