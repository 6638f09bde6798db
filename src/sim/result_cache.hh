/**
 * @file
 * Content-addressed per-cell result cache.
 *
 * Every grid cell is a pure function of (benchmark, config provenance,
 * seed, instruction scale), so its merged MetricsRecord can be cached
 * on disk and replayed byte-identically instead of re-simulated. The
 * cache key is a digest over exactly the provenance results_io embeds
 * in every exported record (seed included) plus the global instruction
 * scale and the cache format version. The cache directory itself is a
 * driver argument, never config, so it cannot enter the key.
 *
 * Entries are VPRZ containers (common/io/zio.hh, kind "result", store
 * codec). Format v3 payload:
 *
 *   "vpr-result v3\n" "digest=<hex16>\n" "benchmark=<name>\n"
 *   "metrics=<N>\n" "schema=<bytes>\n"
 *   schema block: a nested VPRZ container of kind "schema" holding one
 *     "K\tname\tdesc\n" line per metric (K = U or R), deflated when
 *     zlib is present
 *   N values in schema order: counters as LEB128 varints, reals as
 *     their 8 raw little-endian IEEE-754 bytes
 *
 * Every entry of one build repeats the same schema block, so each
 * process packs and decodes a schema once through a small memo; a hit
 * then costs a file read, one checksum over a ~5 KB payload and the
 * values. Reals travel as raw bits, so a replayed record renders
 * byte-identically to a cold run in every exporter. Every load
 * re-verifies the container checksum, digest, benchmark, count and
 * sizes (and a schema block no memo entry vouches for is verified in
 * full); any damage is a miss — the cell is re-simulated and the file
 * repaired, never a wrong row.
 *
 * The cache is wired into the parallel experiment engine: any grid run
 * — a vpr_sim figure, sweep or benchmark, and the vpr_simd daemon — given
 * a cache directory (--result-cache=<dir>) serves previously computed
 * cells from disk.
 * Cells with a custom stream factory are never cached (their workload
 * is not covered by the provenance digest).
 */

#ifndef VPR_SIM_RESULT_CACHE_HH
#define VPR_SIM_RESULT_CACHE_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/parallel_engine.hh"

namespace vpr
{

/** Bump to invalidate every cached result at the name level (the
 *  digest covers it) when the entry format or the records it may hold
 *  change; cache_gc ages the stale files out. Version 2 retired v1
 *  entries, which could hold detailed records perturbed by the
 *  since-removed warm-state checkpoint path; version 3 is the
 *  schema-block layout above. */
constexpr std::uint32_t kResultCacheFormatVersion = 3;

/**
 * Process-wide cache traffic counters (monotonic, thread-safe): the
 * engine's workers update them from any thread; the daemon's /status
 * page and the tests read them as before/after deltas.
 */
struct ResultCacheCounters
{
    std::atomic<std::uint64_t> hits{0};     ///< cells served from disk
    std::atomic<std::uint64_t> misses{0};   ///< cells simulated (no entry)
    std::atomic<std::uint64_t> corrupt{0};  ///< damaged entries discarded
    std::atomic<std::uint64_t> stores{0};   ///< entries written
};

ResultCacheCounters &resultCacheCounters();

/** The content digest of @p cell: provenance subset + benchmark +
 *  instruction scale + format version. Stable across processes. */
std::uint64_t resultCacheDigest(const GridCell &cell);

/** Cache-file path: `<dir>/<benchmark>-<hex16digest>.vprr`. */
std::string resultCachePath(const std::string &dir,
                            const std::string &benchmark,
                            std::uint64_t digest);

/**
 * Look up @p cell in the cache under @p dir. True and fills @p out on
 * a verified hit; false on a miss. A present-but-damaged entry (bad
 * container, checksum, digest or benchmark) counts as corrupt + miss —
 * the caller re-simulates and the re-save repairs the file.
 */
bool loadCachedResult(const std::string &dir, const GridCell &cell,
                      SimResults &out);

/** Publish @p results for @p cell (atomic write; racing same-digest
 *  writers are benign — identical content, last writer wins). Failures
 *  only warn: the cache is an optimization, never a correctness
 *  dependency. */
void storeCachedResult(const std::string &dir, const GridCell &cell,
                       const SimResults &results);

/** @name Cache directory garbage collection (LRU on file mtime)
 *  What tools/cache_gc runs: enforce a byte budget over result-cache
 *  (*.vprr) files, evicting least-recently-touched files first. @{ */

/** One cache file considered by the collector. */
struct CacheFileInfo
{
    std::string path;
    std::uint64_t sizeBytes = 0;
    /** Seconds-resolution modification time, Unix epoch (LRU key). */
    std::int64_t mtime = 0;
};

/** The collector's decision over a set of directories. */
struct CacheGcPlan
{
    std::vector<CacheFileInfo> evict;  ///< oldest-first eviction list
    std::uint64_t totalBytes = 0;      ///< cache size before eviction
    std::uint64_t evictBytes = 0;      ///< bytes the plan frees
    std::size_t keptFiles = 0;         ///< files surviving the budget
};

/** Enumerate the cache files (*.vprr) of @p dirs. Missing or
 *  unreadable directories are skipped with a warning. */
std::vector<CacheFileInfo>
listCacheFiles(const std::vector<std::string> &dirs);

/** Plan evictions so the surviving files fit @p budgetBytes, evicting
 *  by ascending mtime (ties broken by path for determinism). */
CacheGcPlan planCacheGc(const std::vector<std::string> &dirs,
                        std::uint64_t budgetBytes);

/** Delete the planned files; returns how many were removed (a file
 *  vanishing concurrently is not an error). */
std::size_t applyCacheGc(const CacheGcPlan &plan);

/** Human-readable plan listing (one line per eviction + a summary),
 *  shared by cache_gc --dry-run and the vpr_simd startup pass. */
void printCacheGcPlan(std::ostream &os, const CacheGcPlan &plan,
                      std::uint64_t budgetBytes, bool dryRun);

/** Strictly parse a byte-size budget: a non-negative integer with an
 *  optional K/M/G/T suffix (powers of 1024, case-insensitive), e.g.
 *  "500M". False on malformed input or overflow. */
bool parseByteSize(const std::string &text, std::uint64_t &bytes);

/** @} */

} // namespace vpr

#endif // VPR_SIM_RESULT_CACHE_HH
