/**
 * @file
 * The content-addressed result cache end to end: digests must share
 * exactly when results are shareable (and never across configurations),
 * a cached sweep must be byte-identical to the cold run that populated
 * it for any worker count, and every damaged cache entry must fall back
 * to re-simulation with the same results — a bad cache file may cost
 * time, never a wrong row.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/io/zio.hh"
#include "sim/experiment.hh"
#include "sim/result_cache.hh"
#include "sim/results_io.hh"
#include "sim/sweep.hh"

namespace vpr
{
namespace
{

namespace fs = std::filesystem;

SimConfig
quick()
{
    SimConfig c = paperConfig();
    c.skipInsts = 2000;
    c.measureInsts = 20000;
    c.core.fetch.wrongPath = WrongPathMode::Stall;
    return c;
}

/** A fresh, empty cache directory under the test temp root. */
std::string
freshDir(const std::string &tag)
{
    fs::path dir = fs::path(::testing::TempDir()) / ("vpr_rc_" + tag);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

std::size_t
countEntries(const std::string &dir)
{
    std::size_t n = 0;
    for (const auto &entry : fs::directory_iterator(dir))
        if (entry.path().extension() == ".vprr")
            ++n;
    return n;
}

/** Snapshot of the process-wide counters (they are monotonic, so tests
 *  assert on deltas). */
struct CounterSnap
{
    std::uint64_t hits, misses, corrupt, stores;

    static CounterSnap
    now()
    {
        const ResultCacheCounters &c = resultCacheCounters();
        return {c.hits.load(), c.misses.load(), c.corrupt.load(),
                c.stores.load()};
    }
};

/** The sweep grid both the byte-identity and corruption tests run:
 *  one benchmark, three register-file sizes. */
std::vector<GridCell>
testGrid(const SimConfig &base)
{
    return buildSweepGrid(
        {"compress"}, base,
        {SweepAxis{"core.rename.regfile_size", {"48", "64", "96"}}});
}

std::string
renderCsv(const std::vector<GridCell> &cells,
          const std::vector<SimResults> &results)
{
    std::vector<std::size_t> indices(cells.size());
    for (std::size_t i = 0; i < indices.size(); ++i)
        indices[i] = i;
    std::ostringstream os;
    writeResultsCsv(os, "result-cache-test", ShardSpec{}, indices, cells,
                    results);
    return os.str();
}

TEST(ResultCacheDigest, StableAndDiscriminating)
{
    const GridCell cell{"go", quick()};
    EXPECT_EQ(resultCacheDigest(cell), resultCacheDigest(cell));

    // Any provenance parameter or the benchmark changes the key...
    GridCell otherBench = cell;
    otherBench.benchmark = "compress";
    EXPECT_NE(resultCacheDigest(cell), resultCacheDigest(otherBench));

    GridCell otherSeed = cell;
    otherSeed.config.seed = 7;
    EXPECT_NE(resultCacheDigest(cell), resultCacheDigest(otherSeed));

    GridCell otherRegs = cell;
    otherRegs.config.setPhysRegs(96, -1);
    EXPECT_NE(resultCacheDigest(cell), resultCacheDigest(otherRegs));

    // ...while execution-only knobs must not: how a grid is run (or
    // where its caches live) is not part of what was computed.
    GridCell otherJobs = cell;
    otherJobs.config.jobs = 8;
    EXPECT_EQ(resultCacheDigest(cell), resultCacheDigest(otherJobs));

    GridCell otherCacheCfg = cell;
    otherCacheCfg.config.resultCache.dir = "/somewhere/else";
    otherCacheCfg.config.resultCache.compress = false;
    EXPECT_EQ(resultCacheDigest(cell), resultCacheDigest(otherCacheCfg));
}

TEST(ResultCache, MissThenHitRoundTrip)
{
    const std::string dir = freshDir("roundtrip");
    SimConfig config = quick();
    config.resultCache.dir = dir;
    const GridCell cell{"go", config};

    const CounterSnap before = CounterSnap::now();
    SimResults out;
    EXPECT_FALSE(loadCachedResult(dir, cell, out));
    EXPECT_EQ(CounterSnap::now().misses, before.misses + 1);

    const SimResults cold = runOne(cell.benchmark, cell.config);
    storeCachedResult(dir, cell, cold);
    EXPECT_EQ(CounterSnap::now().stores, before.stores + 1);
    EXPECT_TRUE(fs::exists(
        resultCachePath(dir, cell.benchmark, resultCacheDigest(cell))));

    ASSERT_TRUE(loadCachedResult(dir, cell, out));
    EXPECT_EQ(CounterSnap::now().hits, before.hits + 1);
    ASSERT_TRUE(cold.metrics.sameSchema(out.metrics));
    for (std::size_t i = 0; i < cold.metrics.all().size(); ++i)
        EXPECT_EQ(cold.metrics.all()[i].text(),
                  out.metrics.all()[i].text())
            << cold.metrics.all()[i].name();

    // A different cell must not see this entry.
    GridCell other = cell;
    other.config.seed = 3;
    EXPECT_FALSE(loadCachedResult(dir, other, out));
}

TEST(ResultCache, CachedSweepIsByteIdenticalForAnyJobs)
{
    const std::string dir = freshDir("sweep");

    // Cold, uncached reference run.
    const std::vector<GridCell> plain = testGrid(quick());
    const std::string reference = renderCsv(plain, runGrid(plain, 1));

    // Cold run that populates the cache: identical bytes already.
    SimConfig cached = quick();
    cached.resultCache.dir = dir;
    const std::vector<GridCell> cells = testGrid(cached);
    const CounterSnap before = CounterSnap::now();
    EXPECT_EQ(renderCsv(cells, runGrid(cells, 1)), reference);
    EXPECT_EQ(CounterSnap::now().misses, before.misses + cells.size());
    EXPECT_EQ(CounterSnap::now().stores, before.stores + cells.size());
    EXPECT_EQ(countEntries(dir), cells.size());

    // Warm runs: every cell served from disk, for any worker count.
    for (unsigned jobs : {1u, 2u, 3u}) {
        const CounterSnap warm = CounterSnap::now();
        EXPECT_EQ(renderCsv(cells, runGrid(cells, jobs)), reference)
            << "jobs=" << jobs;
        EXPECT_EQ(CounterSnap::now().hits, warm.hits + cells.size());
        EXPECT_EQ(CounterSnap::now().misses, warm.misses);
    }
}

TEST(ResultCache, CorruptEntriesFallBackAndRepair)
{
    const std::string dir = freshDir("corrupt");
    SimConfig config = quick();
    config.resultCache.dir = dir;
    const std::vector<GridCell> cells = testGrid(config);
    const std::string reference = renderCsv(cells, runGrid(cells, 1));
    ASSERT_EQ(countEntries(dir), cells.size());

    // Damage every entry a different way: truncation, garbage, and a
    // flipped payload byte (caught by the container checksum).
    std::vector<std::string> paths;
    for (const GridCell &cell : cells)
        paths.push_back(resultCachePath(dir, cell.benchmark,
                                        resultCacheDigest(cell)));
    std::string bytes;
    ASSERT_TRUE(readFileBytes(paths[0], bytes));
    ASSERT_TRUE(
        writeFileAtomic(paths[0], bytes.substr(0, bytes.size() / 2)));
    ASSERT_TRUE(writeFileAtomic(paths[1], "not a container at all"));
    ASSERT_TRUE(readFileBytes(paths[2], bytes));
    bytes[bytes.size() - 3] ^= 0x20;
    ASSERT_TRUE(writeFileAtomic(paths[2], bytes));

    // The damaged entries cost a re-simulation, never a wrong row, and
    // the re-save repairs them in place.
    const CounterSnap before = CounterSnap::now();
    EXPECT_EQ(renderCsv(cells, runGrid(cells, 1)), reference);
    EXPECT_EQ(CounterSnap::now().corrupt, before.corrupt + cells.size());
    EXPECT_EQ(CounterSnap::now().stores, before.stores + cells.size());

    const CounterSnap after = CounterSnap::now();
    EXPECT_EQ(renderCsv(cells, runGrid(cells, 1)), reference);
    EXPECT_EQ(CounterSnap::now().hits, after.hits + cells.size());
    EXPECT_EQ(CounterSnap::now().corrupt, after.corrupt);
}

TEST(ResultCache, WrongDigestEntryIsRejected)
{
    // An entry renamed onto another cell's path (digest mismatch inside
    // the payload) must be treated as corrupt, not replayed.
    const std::string dir = freshDir("wrongdigest");
    SimConfig config = quick();
    config.resultCache.dir = dir;
    const GridCell cell{"go", config};
    storeCachedResult(dir, cell, runOne(cell.benchmark, cell.config));

    GridCell other = cell;
    other.config.seed = 9;
    const std::string from =
        resultCachePath(dir, cell.benchmark, resultCacheDigest(cell));
    const std::string to =
        resultCachePath(dir, other.benchmark, resultCacheDigest(other));
    fs::rename(from, to);

    const CounterSnap before = CounterSnap::now();
    SimResults out;
    EXPECT_FALSE(loadCachedResult(dir, other, out));
    EXPECT_EQ(CounterSnap::now().corrupt, before.corrupt + 1);
}

TEST(ResultCache, SaveOffReadsButNeverWrites)
{
    const std::string dir = freshDir("readonly");
    SimConfig config = quick();
    config.resultCache.dir = dir;
    const std::vector<GridCell> writer = testGrid(config);
    runGrid(writer, 1);
    ASSERT_EQ(countEntries(dir), writer.size());

    // save=0: a reader deployment (CI shards against a shared cache)
    // hits existing entries but adds nothing.
    SimConfig readOnly = config;
    readOnly.resultCache.save = false;
    readOnly.seed = 11;  // all-new cells
    const std::vector<GridCell> reader = testGrid(readOnly);
    const CounterSnap before = CounterSnap::now();
    runGrid(reader, 1);
    EXPECT_EQ(CounterSnap::now().misses, before.misses + reader.size());
    EXPECT_EQ(CounterSnap::now().stores, before.stores);
    EXPECT_EQ(countEntries(dir), writer.size());
}

TEST(ResultCacheGc, EvictsOldestUntilBudgetFits)
{
    const std::string dir = freshDir("gc");
    // Four 100-byte files with strictly increasing mtimes.
    std::vector<std::string> names = {"a.vprr", "b.vprr", "c.vprr",
                                      "d.vprr"};
    const auto base = fs::file_time_type::clock::now();
    for (std::size_t i = 0; i < names.size(); ++i) {
        const std::string path = dir + "/" + names[i];
        ASSERT_TRUE(writeFileAtomic(path, std::string(100, 'x')));
        fs::last_write_time(path,
                            base - std::chrono::hours(names.size() - i));
    }
    // A non-cache file must be ignored entirely.
    ASSERT_TRUE(writeFileAtomic(dir + "/notes.txt",
                                std::string(1000, 'y')));

    const CacheGcPlan plan = planCacheGc({dir}, 250);
    EXPECT_EQ(plan.totalBytes, 400u);
    ASSERT_EQ(plan.evict.size(), 2u);  // oldest two of four
    EXPECT_EQ(plan.evictBytes, 200u);
    EXPECT_EQ(plan.keptFiles, 2u);
    EXPECT_EQ(fs::path(plan.evict[0].path).filename().string(),
              "a.vprr");
    EXPECT_EQ(fs::path(plan.evict[1].path).filename().string(),
              "b.vprr");

    EXPECT_EQ(applyCacheGc(plan), 2u);
    EXPECT_FALSE(fs::exists(dir + "/a.vprr"));
    EXPECT_TRUE(fs::exists(dir + "/c.vprr"));
    EXPECT_TRUE(fs::exists(dir + "/notes.txt"));

    // Under budget: nothing to do. Missing directory: skipped quietly.
    EXPECT_TRUE(planCacheGc({dir}, 1 << 20).evict.empty());
    EXPECT_TRUE(planCacheGc({dir + "/missing"}, 0).evict.empty());

    std::ostringstream os;
    printCacheGcPlan(os, plan, 250, /*dryRun=*/true);
    EXPECT_NE(os.str().find("would evict"), std::string::npos);
}

TEST(ResultCacheGc, ParseByteSize)
{
    std::uint64_t v = 0;
    EXPECT_TRUE(parseByteSize("0", v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseByteSize("1234", v));
    EXPECT_EQ(v, 1234u);
    EXPECT_TRUE(parseByteSize("4K", v));
    EXPECT_EQ(v, 4096u);
    EXPECT_TRUE(parseByteSize("2m", v));
    EXPECT_EQ(v, 2u << 20);
    EXPECT_TRUE(parseByteSize("3G", v));
    EXPECT_EQ(v, 3ull << 30);
    EXPECT_TRUE(parseByteSize("1T", v));
    EXPECT_EQ(v, 1ull << 40);
    EXPECT_FALSE(parseByteSize("", v));
    EXPECT_FALSE(parseByteSize("K", v));
    EXPECT_FALSE(parseByteSize("12Q", v));
    EXPECT_FALSE(parseByteSize("-5", v));
    EXPECT_FALSE(parseByteSize("999999999999999999G", v));
}

} // namespace
} // namespace vpr
