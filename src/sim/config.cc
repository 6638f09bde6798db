#include "sim/config.hh"

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

std::string
SimConfig::validationError() const
{
    const RenameConfig &r = core.rename;
    if (r.numPhysRegs <= kNumLogicalRegs)
        return detail::concat("numPhysRegs (", r.numPhysRegs,
                              ") must exceed the ", kNumLogicalRegs,
                              " logical registers");
    if (isVirtualPhysical(core.scheme)) {
        if (r.numVPRegs < kNumLogicalRegs + core.robSize)
            return detail::concat(
                "numVPRegs (", r.numVPRegs, ") must be >= NLR + "
                "window (", kNumLogicalRegs + core.robSize,
                ") so decode never starves for tags");
        if (r.nrrInt < 1 || r.nrrFp < 1)
            return "NRR must be >= 1 (deadlock avoidance)";
        if (r.nrrInt > r.numPhysRegs - kNumLogicalRegs ||
            r.nrrFp > r.numPhysRegs - kNumLogicalRegs)
            return detail::concat("NRR must be <= NPR - NLR = ",
                                  r.numPhysRegs - kNumLogicalRegs);
    }
    if (core.iqSize < core.robSize)
        return "iqSize must be >= robSize (unified queue)";
    if (core.scheme == RenameScheme::ConventionalEarlyRelease &&
        core.fetch.wrongPath != WrongPathMode::Stall)
        return detail::concat(
            "core.scheme=", renameSchemeName(core.scheme),
            " requires core.fetch.wrong_path=stall (got ",
            wrongPathModeName(core.fetch.wrongPath),
            "): early release cannot squash a wrong-path superseder");
    if (sampling.enable) {
        if (sampling.detailedInsts == 0)
            return "sampling: zero-length detailed interval "
                   "(sim.sampling.detailed_insts must be >= 1)";
        if (sampling.warmupInsts + sampling.detailedInsts >
            sampling.periodInsts)
            return detail::concat(
                "sampling: warm-up (", sampling.warmupInsts,
                ") plus detailed interval (", sampling.detailedInsts,
                ") exceeds the period (", sampling.periodInsts, ")");
        if (sampling.periodInsts > measureInsts)
            return detail::concat(
                "sampling: period (", sampling.periodInsts,
                ") exceeds the measurement budget (", measureInsts,
                "); not even one interval fits");
    }
    return std::string();
}

void
SimConfig::validate() const
{
    const std::string error = validationError();
    if (!error.empty())
        VPR_FATAL(error);
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
CkptConfig::visitParams(ParamVisitor &v)
{
    // All execution-only: where warm state is cached must never change
    // a result, so none of these enter provenance or config dumps.
    v.strParam("dir", dir,
               "warm-state checkpoint cache directory (empty = "
               "checkpointing disabled); never changes results",
               /*execOnly=*/true);
    v.boolParam("compress", compress,
                "compress checkpoint files (zlib container; stored "
                "container when the build lacks zlib)",
                /*execOnly=*/true);
    v.boolParam("save", save,
                "save a checkpoint after a cold warm-up (0 = "
                "restore-only)",
                /*execOnly=*/true);
}

void
ResultCacheConfig::visitParams(ParamVisitor &v)
{
    // All execution-only: where whole-cell results are cached must
    // never change a result, so none of these enter provenance or
    // config dumps.
    v.strParam("dir", dir,
               "content-addressed per-cell result cache directory "
               "(empty = cache disabled); never changes results",
               /*execOnly=*/true);
    v.boolParam("compress", compress,
                "compress result-cache entries (zlib container; stored "
                "container when the build lacks zlib)",
                /*execOnly=*/true);
    v.boolParam("save", save,
                "save an entry after simulating a missed cell (0 = "
                "read-only cache)",
                /*execOnly=*/true);
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
    v.uintParam("jobs", jobs,
                "worker threads for grid sweeps (0 = one per hardware "
                "thread); never changes results",
                /*execOnly=*/true);
    v.pushGroup("sim");
    v.pushGroup("sampling");
    sampling.visitParams(v);
    v.popGroup();
    v.pushGroup("ckpt");
    ckpt.visitParams(v);
    v.popGroup();
    v.pushGroup("result_cache");
    resultCache.visitParams(v);
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

} // namespace vpr
