/**
 * @file
 * Lockup-free L1 data cache.
 *
 * Paper configuration (section 4.1): 16 KB direct-mapped, 32-byte lines,
 * 2-cycle hit, 50-cycle miss penalty, up to 8 outstanding misses to
 * distinct lines (Kroft lockup-free organization), infinite L2 behind a
 * 64-bit bus (4-cycle line occupancy). Write-back, write-allocate.
 *
 * The model is timestamp-based: an access at cycle `now` immediately
 * yields the cycle its data is available, accounting for MSHR merging
 * and bus queueing. Associativity is configurable (default 1 = direct
 * mapped) with LRU replacement for the set-associative extension.
 */

#ifndef VPR_MEMORY_CACHE_HH
#define VPR_MEMORY_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "memory/bus.hh"
#include "memory/mshr.hh"

namespace vpr
{

class ParamVisitor;

/** Static cache parameters. */
struct CacheConfig
{
    std::uint64_t sizeBytes = 16 * 1024;
    unsigned lineSize = 32;
    unsigned assoc = 1;           ///< 1 = direct mapped
    unsigned hitLatency = 2;
    unsigned missPenalty = 50;    ///< total latency of a fill
    unsigned numMshrs = 8;
    unsigned busOccupancy = 4;    ///< cycles a line holds the L1-L2 bus

    /** Reflect the cache parameters (sim/params.hh). */
    void visitParams(ParamVisitor &v);
};

/** Possible outcomes of a cache access. */
enum class CacheOutcome : std::uint8_t
{
    Hit,         ///< data ready after the hit latency
    Miss,        ///< new fill issued
    MergedMiss,  ///< merged into an outstanding fill of the same line
    Blocked      ///< all MSHRs busy; retry next cycle
};

/** Result of one access: outcome plus data-ready cycle. */
struct CacheAccessResult
{
    CacheOutcome outcome;
    Cycle readyCycle;  ///< unspecified for Blocked
};

/** Non-blocking write-back write-allocate cache with an occupancy bus. */
class NonBlockingCache
{
  public:
    explicit NonBlockingCache(const CacheConfig &config = CacheConfig());

    /**
     * Perform a timing access.
     *
     * @param addr byte address
     * @param isWrite true for stores
     * @param now current cycle; must be non-decreasing across calls
     * @return the outcome and data-ready cycle
     */
    CacheAccessResult access(Addr addr, bool isWrite, Cycle now);

    /** Line-aligned address. */
    Addr lineAddr(Addr a) const { return a & ~static_cast<Addr>(lineMask); }

    const CacheConfig &config() const { return cfg; }
    const Bus &bus() const { return theBus; }
    const MshrFile &mshrs() const { return mshrFile; }

    /** True if the line is present in the tag array right now (after
     *  retiring any fills that completed by @p now). Test hook. */
    bool isPresent(Addr addr, Cycle now);

    /**
     * Side-effect-free check: would access(addr, isWrite, now) return
     * Blocked? (Retires completed fills, which only moves time forward.)
     */
    bool wouldBlock(Addr addr, Cycle now);

    /** Statistics. @{ */
    std::uint64_t accesses() const { return nAccesses; }
    std::uint64_t hits() const { return nHits; }
    std::uint64_t misses() const { return nMisses; }
    std::uint64_t mergedMisses() const { return nMerged; }
    std::uint64_t blockedAccesses() const { return nBlocked; }
    std::uint64_t writebacks() const { return nWritebacks; }
    double
    missRate() const
    {
        std::uint64_t demand = nHits + nMisses + nMerged;
        return demand ? static_cast<double>(nMisses + nMerged) /
                            static_cast<double>(demand)
                      : 0.0;
    }
    /** @} */

    void reset();

    /**
     * Register the "memory" stat group into the core's stats tree. The
     * exported access/miss counts are measurement-interval deltas of
     * the monotonic counters above; the miss rate stays whole-run (the
     * steady-state figure the paper quotes).
     */
    void regStats(stats::StatRegistry &r);

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        Addr tag = 0;       ///< full line address for simplicity
        Cycle lastUse = 0;  ///< LRU timestamp
    };

    /** Install fills that have completed by @p now. */
    void retireFills(Cycle now);

    /** Find the way holding @p line in @p set, or -1. */
    int findWay(std::size_t set, Addr line) const;

    /** Pick a victim way in @p set (invalid first, then LRU). */
    std::size_t victimWay(std::size_t set) const;

    std::size_t setIndex(Addr line) const;

    CacheConfig cfg;
    std::size_t numSets;
    std::uint64_t lineMask;
    std::vector<Line> lines;  ///< numSets * assoc, way-major within set
    MshrFile mshrFile;
    Bus theBus;

    std::uint64_t nAccesses = 0;
    std::uint64_t nHits = 0;
    std::uint64_t nMisses = 0;
    std::uint64_t nMerged = 0;
    std::uint64_t nBlocked = 0;
    std::uint64_t nWritebacks = 0;

    stats::StatGroup group{"memory"};
    stats::Scalar accessesStat{"cache_accesses",
                               "L1 data cache accesses"};
    stats::Scalar missesStat{"cache_misses",
                             "L1 data cache misses (incl. merged)"};
    stats::Real missRateStat{"cache_miss_rate",
                             "L1 data cache miss rate"};
    std::uint64_t baseAccesses = 0;
    std::uint64_t baseMisses = 0;
};

} // namespace vpr

#endif // VPR_MEMORY_CACHE_HH
