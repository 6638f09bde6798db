#include "core/core.hh"

#include "common/logging.hh"
#include "sim/params.hh"

namespace vpr
{

namespace
{

/** Panic if no instruction commits for this many cycles: about 3x the
 *  longest memory stall SimConfig::validate admits (65,535 cycles). */
constexpr Cycle kDeadlockCycles = 200000;

} // namespace

void
CoreConfig::visitParams(ParamVisitor &v)
{
    v.uintParam("rename_width", renameWidth,
                "instructions renamed per cycle");
    v.uintParam("issue_width", issueWidth,
                "instructions issued per cycle");
    v.uintParam("commit_width", commitWidth,
                "instructions committed per cycle");
    v.uintParam("rob_size", robSize,
                "reorder-buffer (instruction window) entries");
    v.uintParam("iq_size", iqSize,
                "instruction-queue entries (unified int+fp queue)");
    v.uintParam("lsq_size", lsqSize, "load/store-queue entries");
    v.uintParam("reg_read_ports", regReadPorts,
                "register-file read ports per cycle");
    v.uintParam("reg_write_ports", regWritePorts,
                "register-file write ports per cycle");
    v.uintParam("cache_ports", cachePorts,
                "data-cache ports per cycle");
    // Canonical names come from renameSchemeName; the short aliases
    // follow their scheme.
    using RS = RenameScheme;
    auto named = [](RS s) {
        return std::pair<const char *, RS>(renameSchemeName(s), s);
    };
    v.enumParam("scheme", scheme,
                {named(RS::Conventional),
                 {"conv", RS::Conventional},
                 named(RS::VPAllocAtWriteback),
                 {"vp-wb", RS::VPAllocAtWriteback},
                 named(RS::VPAllocAtIssue),
                 named(RS::ConventionalEarlyRelease),
                 {"conv-er", RS::ConventionalEarlyRelease}},
                "register-renaming scheme");
    v.boolParam("invariant_checks", invariantChecks,
                "run the renamer's invariant self-check every 64 cycles");
    v.pushGroup("rename");
    rename.visitParams(v);
    v.popGroup();
    v.pushGroup("fetch");
    fetch.visitParams(v);
    v.popGroup();
    v.pushGroup("fu");
    fu.visitParams(v);
    v.popGroup();
    v.pushGroup("cache");
    cache.visitParams(v);
    v.popGroup();
}

Core::Core(TraceStream &stream, const CoreConfig &config)
    : state(stream, config),
      // Calendar horizon: the longest ordinary completion latency is a
      // cache miss (hit + miss penalty); pad for write-port slip and
      // MSHR queueing, and the constructor rounds up to a power of two.
      // Anything beyond still works via the overflow list.
      completions(state.cfg.cache.hitLatency + state.cfg.cache.missPenalty +
                      64,
                  state.cfg.issueWidth),
      commit(state),
      complete(state, completions),
      issue(state, completions),
      rename(state)
{
    // The stages registered their groups as they were constructed; fetch
    // follows them, back to front.
    fetchGroup.add(&branchesStat);
    fetchGroup.add(&mispredictsStat);
    state.statsTree.add(
        &fetchGroup,
        [this] {
            branchesStat.set(state.fetch.branches() - baseBranches);
            mispredictsStat.set(state.fetch.mispredicts() -
                                baseMispredicts);
        },
        [this] {
            fetchGroup.resetAll();
            baseBranches = state.fetch.branches();
            baseMispredicts = state.fetch.mispredicts();
        });

    // Registered last so its update hook runs after the groups it
    // derives from ("core" cycles, "commit" counters) are up to date.
    derivedGroup.add(&ipcStat);
    derivedGroup.add(&execPerCommitStat);
    state.statsTree.add(&derivedGroup, [this] {
        const std::uint64_t c = state.intervalCycles();
        const std::uint64_t committed = commit.committedInterval();
        ipcStat.set(c ? static_cast<double>(committed) /
                            static_cast<double>(c)
                      : 0.0);
        execPerCommitStat.set(
            committed ? static_cast<double>(
                            commit.committedExecutionsInterval()) /
                            static_cast<double>(committed)
                      : 0.0);
    });
}

bool
Core::done() const
{
    return state.fetch.done() && state.rob.empty();
}

bool
Core::tick()
{
    state.beginCycle();

    // Back-to-front: a result produced by an earlier (older) stage this
    // cycle is visible to the later (younger) stages of the same cycle.
    commit.tick();
    complete.tick();
    issue.tick();
    rename.tick();
    state.fetch.tick(state.curCycle);

    state.sampleStats();

    if (state.cfg.invariantChecks && (state.curCycle & 0x3f) == 0)
        state.renameMgr->checkInvariants();

    if (state.curCycle - state.lastCommitCycle > kDeadlockCycles) {
        VPR_PANIC("deadlock: no commit for ", kDeadlockCycles,
                  " cycles; head ",
                  state.rob.empty() ? std::string("(empty ROB)")
                                    : state.rob.head().toString(),
                  " freeInt=", state.renameMgr->freePhysRegs(RegClass::Int),
                  " freeFp=", state.renameMgr->freePhysRegs(RegClass::Float),
                  " iq=", state.iq.size(), " lsq=", state.lsq.size(),
                  " mshrs=", state.cache.mshrs().size(),
                  " portUsedNow=", state.cachePortSched.used(state.curCycle),
                  " storesWaiting=", completions.parkedStoreCount(),
                  " events=", completions.pendingEvents());
    }

    return !done();
}

void
Core::runUntilCommitted(std::uint64_t maxCommitted)
{
    while (commit.committedTotal() < maxCommitted && tick()) {
    }
}

bool
Core::quiescent() const
{
    return state.rob.empty() && state.iq.size() == 0 &&
           state.lsq.size() == 0 && !state.fetch.hasInst() &&
           !state.fetch.awaitingResolve() &&
           completions.pendingEvents() == 0 &&
           completions.parkedStoreCount() == 0;
}

void
Core::drain()
{
    // Pause fetch so no new trace records enter, then tick until every
    // in-flight instruction has committed and every latch is empty.
    // Stale (squashed) completion events pop harmlessly as the cycles
    // pass, so this terminates in at most the pipeline depth plus the
    // longest outstanding completion latency.
    state.fetch.setPaused(true);
    while (!quiescent())
        tick();
    state.fetch.setPaused(false);
}

std::uint64_t
Core::fastForward(std::uint64_t n, bool warm)
{
    drain();

    std::uint64_t done = 0;
    if (warm) {
        done = state.fetch.warmFunctional(n, state.cache, state.curCycle);
    } else {
        done = state.fetch.skipFunctional(n);
        state.curCycle += done;
    }

    ffRetired += done;
    // The clock jumped without commits; re-arm the deadlock detector so
    // the next detailed interval doesn't trip it spuriously.
    state.lastCommitCycle = state.curCycle;
    return done;
}

void
Core::resetStats()
{
    state.resetStats();
}

void
Core::visitStats(stats::StatVisitor &v)
{
    state.statsTree.visit(v);
}

} // namespace vpr
