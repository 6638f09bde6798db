/**
 * @file
 * cache_gc — garbage-collect the on-disk result cache.
 *
 * Enforces a byte budget over result-cache (*.vprr) files by LRU on
 * file mtime: the least-recently-written files are deleted until what
 * remains fits the budget. The cache is a pure re-computable
 * optimization, so eviction only ever costs re-simulation, never
 * correctness.
 *
 * Usage:
 *   cache_gc --budget=<size>[K|M|G|T] [--dry-run] <dir> [<dir>...]
 *
 * The budget spans all listed directories together. --dry-run prints
 * the eviction plan without deleting anything. Run it on a daemon's
 * --result-cache directory before starting vpr_simd, e.g.
 * `cache_gc --budget=500M rc`.
 */

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "sim/params.hh"
#include "sim/result_cache.hh"

using namespace vpr;

namespace
{

constexpr const char *kUsage =
    "usage: cache_gc --budget=<size>[K|M|G|T] [--dry-run] <dir> "
    "[<dir>...] (evicts *.vprr result-cache files, least recently "
    "written first, until the rest fit the budget)";

int
gcMain(int argc, char **argv)
{
    std::uint64_t budget = 0;
    bool haveBudget = false;
    bool dryRun = false;
    std::vector<std::string> dirs;

    for (int i = 1; i < argc; ++i) {
        const char *v = nullptr;
        if (matchArg(argv[i], "--budget", &v)) {
            if (!parseByteSize(v, budget))
                VPR_FATAL("bad --budget '", v,
                          "' (want bytes with an optional K/M/G/T "
                          "suffix)");
            haveBudget = true;
        } else if (std::strcmp(argv[i], "--dry-run") == 0) {
            dryRun = true;
        } else if (argv[i][0] == '-') {
            VPR_FATAL("unrecognized argument '", argv[i], "'; ", kUsage);
        } else {
            dirs.push_back(argv[i]);
        }
    }
    if (!haveBudget || dirs.empty())
        VPR_FATAL("need --budget and a cache directory; ", kUsage);

    const CacheGcPlan plan = planCacheGc(dirs, budget);
    printCacheGcPlan(std::cout, plan, budget, dryRun);
    if (!dryRun) {
        const std::size_t removed = applyCacheGc(plan);
        if (removed != plan.evict.size())
            std::cerr << "cache_gc: removed " << removed << " of "
                      << plan.evict.size()
                      << " planned files (some vanished concurrently)\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain([&] { return gcMain(argc, argv); });
}
