/**
 * @file
 * Fetch unit.
 *
 * Fetches up to fetchWidth consecutive instructions per cycle from the
 * trace (perfect instruction cache, as in the paper). A fetch group ends
 * at a predicted-taken branch. Branch directions come from the BHT;
 * targets come from the trace (perfect BTB).
 *
 * Because the simulator is trace driven, a misprediction cannot redirect
 * fetch down the *actual* wrong path. Two models are provided:
 *
 *  - wrong-path synthesis (default): after a mispredicted branch, fetch
 *    produces synthetic wrong-path instructions that are renamed,
 *    scheduled and executed normally and squashed when the branch
 *    resolves — so mispredictions consume registers, queue slots and
 *    functional units, which matters for a register-pressure study;
 *  - fetch stall: fetch simply stops until the branch resolves (the
 *    classic trace-driven simplification).
 */

#ifndef VPR_CORE_FETCH_HH
#define VPR_CORE_FETCH_HH

#include "branch/bht.hh"
#include "common/circular_buffer.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "trace/stream.hh"

namespace vpr
{

class ParamVisitor;
class NonBlockingCache;

/** How fetch behaves after a detected misprediction. */
enum class WrongPathMode : std::uint8_t
{
    Synthesize,  ///< fetch synthetic wrong-path instructions
    Stall        ///< stop fetching until the branch resolves
};

/** One fetched instruction awaiting rename. */
struct FetchedInst
{
    StaticInst si;
    bool wrongPath = false;
    bool mispredictedBranch = false;
    Cycle fetchCycle = kNoCycle;
};

/** Fetch-unit parameters. */
struct FetchConfig
{
    unsigned fetchWidth = 8;
    unsigned bufferCapacity = 16;
    unsigned bhtEntries = 2048;
    unsigned redirectDelay = 1;  ///< cycles from resolve to next fetch
    WrongPathMode wrongPath = WrongPathMode::Synthesize;
    std::uint64_t wrongPathSeed = 0x77f00dull;

    /**
     * Let synthesized wrong-path instructions include loads and stores
     * that really probe the cache and LSQ (speculative pollution).
     * Off by default: the paper's methodology keeps wrong-path memory
     * accesses out of scope, and the reproduction numbers match it.
     */
    bool wrongPathMem = false;

    /** Reflect the fetch parameters (sim/params.hh). */
    void visitParams(ParamVisitor &v);
};

/** Short stable name for a WrongPathMode ("stall"/"synthesize"). */
const char *wrongPathModeName(WrongPathMode mode);

/** The fetch unit. */
class FetchUnit
{
  public:
    FetchUnit(TraceStream &stream, const FetchConfig &config);

    /** Run one fetch cycle, filling the fetch buffer. */
    void tick(Cycle now);

    /** Instructions available for rename this cycle. */
    bool hasInst() const { return !buffer.empty(); }
    const FetchedInst &peek() const { return buffer.front(); }
    FetchedInst pop();

    /** The mispredicted branch resolved; redirect fetch. */
    void resolveBranch(Cycle now);

    /**
     * Pause/resume detailed fetch. While paused, tick() is a no-op, so
     * the pipeline behind the fetch buffer can drain without consuming
     * trace records — the quiesce step before a sampled fast-forward.
     */
    void setPaused(bool p) { paused = p; }

    /**
     * Retire up to @p n trace records through the functional-warming
     * path: no buffering, no fetch-group shaping, no wrong-path
     * machinery — but branches train the BHT and memory ops probe
     * @p cache, so long-lived microarchitectural state stays warm
     * across a fast-forward. @p now advances one cycle per instruction
     * (the cache's MSHR/fill machinery is timestamp ordered and needs
     * a moving clock). Whole-run fetch/branch counters are untouched;
     * the detailed intervals own those. Requires the buffer to be
     * empty and no mispredict outstanding (the caller drains first).
     * One batched call per fast-forward keeps the per-instruction cost
     * at the trace-generation + cache-probe floor.
     * @return records actually retired; fewer than @p n only at end of
     * trace.
     */
    std::size_t warmFunctional(std::size_t n, NonBlockingCache &cache,
                               Cycle &now);

    /**
     * Skip @p n records without observing them at all (fast-forward
     * with functional warming disabled). @return records actually
     * skipped; fewer than @p n only at end of trace.
     */
    std::size_t skipFunctional(std::size_t n);

    /** True while fetch is past an unresolved mispredicted branch. */
    bool awaitingResolve() const { return waiting; }

    /** Trace exhausted and buffer drained. */
    bool done() const { return exhausted && buffer.empty() && !waiting; }

    const BhtPredictor &predictor() const { return bht; }

    /** Statistics. @{ */
    std::uint64_t fetchedReal() const { return nReal; }
    std::uint64_t fetchedWrongPath() const { return nWrongPath; }
    std::uint64_t branches() const { return nBranches; }
    std::uint64_t mispredicts() const { return nMispredicts; }
    /** @} */

    /** Register the "branch" stat group (predictor accuracy, whole-run)
     *  into the core's stats tree. */
    void
    regStats(stats::StatRegistry &r)
    {
        r.add(&branchGroup,
              [this] { bhtAccuracy.set(bht.accuracy()); });
    }

  private:
    /** Trace records read per refill of the read-ahead array. */
    static constexpr std::size_t kReadAhead = 32;

    /** Generate one synthetic wrong-path instruction. */
    StaticInst synthesizeWrongPath();

    /** Warm the predictor or @p cache with one record at @p now. */
    void warmOne(const TraceRecord &rec, NonBlockingCache &cache,
                 Cycle now);

    TraceStream &trace;
    /** Records read from the trace ahead of detailed fetch: one
     *  nextBatch() call per kReadAhead records instead of one virtual
     *  next() per record. The functional paths consume what is left
     *  here before they read the trace, so the record sequence is the
     *  trace's own. @{ */
    TraceRecord ahead[kReadAhead];
    std::size_t aheadPos = 0;
    std::size_t aheadLen = 0;
    /** @} */
    FetchConfig cfg;
    BhtPredictor bht;
    /** Bounded FIFO between fetch and rename — a fixed ring, not a
     *  deque: fetch pushes and rename pops every cycle of the run. */
    CircularBuffer<FetchedInst> buffer;

    bool waiting = false;     ///< unresolved mispredicted branch
    bool paused = false;      ///< detailed fetch suspended (quiesce)
    Cycle stallUntil = 0;     ///< no fetch before this cycle
    bool exhausted = false;
    Random wpRng;
    Addr wpPc = 0xdead0000;

    std::uint64_t nReal = 0;
    std::uint64_t nWrongPath = 0;
    std::uint64_t nBranches = 0;
    std::uint64_t nMispredicts = 0;

    stats::StatGroup branchGroup{"branch"};
    stats::Real bhtAccuracy{"bht_accuracy", "branch predictor accuracy"};
};

} // namespace vpr

#endif // VPR_CORE_FETCH_HH
