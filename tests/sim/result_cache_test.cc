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
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/io/zio.hh"
#include "common/logging.hh"
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
}

TEST(ResultCache, MissThenHitRoundTrip)
{
    const std::string dir = freshDir("roundtrip");
    const GridCell cell{"go", quick()};

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
    const std::vector<GridCell> cells = testGrid(quick());
    const std::string reference = renderCsv(cells, runGrid(cells, 1));

    // Cold run that populates the cache: identical bytes already.
    const CounterSnap before = CounterSnap::now();
    EXPECT_EQ(renderCsv(cells, runGrid(cells, 1, dir)), reference);
    EXPECT_EQ(CounterSnap::now().misses, before.misses + cells.size());
    EXPECT_EQ(CounterSnap::now().stores, before.stores + cells.size());
    EXPECT_EQ(countEntries(dir), cells.size());

    // Warm runs: every cell served from disk, for any worker count.
    for (unsigned jobs : {1u, 2u, 3u}) {
        const CounterSnap warm = CounterSnap::now();
        EXPECT_EQ(renderCsv(cells, runGrid(cells, jobs, dir)), reference)
            << "jobs=" << jobs;
        EXPECT_EQ(CounterSnap::now().hits, warm.hits + cells.size());
        EXPECT_EQ(CounterSnap::now().misses, warm.misses);
    }
}

TEST(ResultCache, CorruptEntriesFallBackAndRepair)
{
    const std::string dir = freshDir("corrupt");
    const std::vector<GridCell> cells = testGrid(quick());
    const std::string reference = renderCsv(cells, runGrid(cells, 1, dir));
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
    EXPECT_EQ(renderCsv(cells, runGrid(cells, 1, dir)), reference);
    EXPECT_EQ(CounterSnap::now().corrupt, before.corrupt + cells.size());
    EXPECT_EQ(CounterSnap::now().stores, before.stores + cells.size());

    const CounterSnap after = CounterSnap::now();
    EXPECT_EQ(renderCsv(cells, runGrid(cells, 1, dir)), reference);
    EXPECT_EQ(CounterSnap::now().hits, after.hits + cells.size());
    EXPECT_EQ(CounterSnap::now().corrupt, after.corrupt);
}

TEST(ResultCache, WrongDigestEntryIsRejected)
{
    // An entry renamed onto another cell's path (digest mismatch inside
    // the payload) must be treated as corrupt, not replayed.
    const std::string dir = freshDir("wrongdigest");
    const GridCell cell{"go", quick()};
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

double
fromBits(std::uint64_t bits)
{
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
}

std::uint64_t
bitsOf(double d)
{
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    return bits;
}

/** The entry file of @p cell under @p dir, and its v3 payload split
 *  at the schema block: header lines, block, values. */
struct EntryParts
{
    std::string head, block, values;

    static EntryParts
    of(const std::string &dir, const GridCell &cell)
    {
        std::string raw;
        EXPECT_TRUE(readFileBytes(
            resultCachePath(dir, cell.benchmark, resultCacheDigest(cell)),
            raw));
        const std::string payload = vprzUnpack(raw, "result");
        const std::size_t at = payload.find("\nschema=") + 1;
        const std::size_t nl = payload.find('\n', at);
        const std::size_t size =
            std::stoul(payload.substr(at + 7, nl - at - 7));
        return {payload.substr(0, nl + 1), payload.substr(nl + 1, size),
                payload.substr(nl + 1 + size)};
    }

    /** Re-pack as a well-formed entry file for @p cell (the outer
     *  checksum passes whatever the parts hold). */
    void
    write(const std::string &dir, const GridCell &cell) const
    {
        ASSERT_TRUE(writeFileAtomic(
            resultCachePath(dir, cell.benchmark, resultCacheDigest(cell)),
            vprzPack(head + block + values, "result", false)));
    }
};

TEST(ResultCache, RecordsRoundTripBitExactly)
{
    // Counters at both ends of the varint range, reals whose text
    // would lose them (NaN payloads, -0.0, denormals), and descriptions
    // with spaces: a hit must return every bit.
    const std::string dir = freshDir("bitexact");
    const GridCell cell{"go", quick()};
    using L = std::numeric_limits<double>;
    SimResults stored;
    MetricsRecord &m = stored.metrics;
    m.setUInt("bitexact.zero", "a counter at zero", 0);
    m.setUInt("bitexact.max", "the largest counter", ~std::uint64_t{0});
    m.setUInt("bitexact.seven_bits", "one varint byte", 127);
    m.setUInt("bitexact.eight_bits", "two varint bytes", 128);
    m.setReal("bitexact.nan_payload", "a quiet NaN with payload bits",
              fromBits(0x7ff8000000000123ull));
    m.setReal("bitexact.neg_nan", "a negative signalling NaN",
              fromBits(0xfff0000000000001ull));
    m.setReal("bitexact.neg_zero", "minus zero", -0.0);
    m.setReal("bitexact.denorm_min", "smallest denormal",
              L::denorm_min());
    m.setReal("bitexact.denorm_max", "largest denormal",
              fromBits(0x000fffffffffffffull));
    m.setReal("bitexact.inf", "infinity", -L::infinity());
    m.setReal("bitexact.third", "", 1.0 / 3.0);
    storeCachedResult(dir, cell, stored);

    SimResults out;
    ASSERT_TRUE(loadCachedResult(dir, cell, out));
    ASSERT_EQ(out.metrics.size(), m.size());
    for (std::size_t i = 0; i < m.size(); ++i) {
        const Metric &want = m.all()[i];
        const Metric &got = out.metrics.all()[i];
        EXPECT_EQ(got.name(), want.name());
        EXPECT_EQ(got.desc(), want.desc());
        ASSERT_EQ(got.kind, want.kind) << want.name();
        if (want.kind == Metric::Kind::UInt)
            EXPECT_EQ(got.uval, want.uval) << want.name();
        else
            EXPECT_EQ(bitsOf(got.rval), bitsOf(want.rval)) << want.name();
    }
}

TEST(ResultCache, MalformedPayloadsAreMisses)
{
    // Entries re-packed into valid containers, so each reaches the
    // payload check it targets rather than the outer checksum.
    const std::string dir = freshDir("malformed");
    const GridCell cell{"go", quick()};
    SimResults stored;
    stored.metrics.setUInt("malformed.count", "one counter", 0);
    storeCachedResult(dir, cell, stored);
    const EntryParts good = EntryParts::of(dir, cell);
    ASSERT_EQ(good.values, std::string(1, '\0'));

    auto withValues = [&](const std::string &values) {
        EntryParts e = good;
        e.values = values;
        return e;
    };
    auto withHeader = [&](const std::string &from, const std::string &to) {
        EntryParts e = good;
        e.head.replace(e.head.find(from), from.size(), to);
        return e;
    };
    const std::string schemaSize = std::to_string(good.block.size());
    const std::vector<std::pair<const char *, EntryParts>> cases = {
        {"counter overflows 64 bits",
         withValues(std::string(9, '\xff') + '\x02')},
        {"non-canonical counter", withValues(std::string("\x80\x00", 2))},
        {"trailing byte", withValues(std::string(2, '\0'))},
        {"truncated value", withValues("")},
        {"metric count", withHeader("metrics=1", "metrics=2")},
        {"schema size", withHeader("schema=" + schemaSize,
                                   "schema=" + schemaSize + "0")},
        {"format version", withHeader("vpr-result v3", "vpr-result v2")},
    };
    for (const auto &[what, entry] : cases) {
        entry.write(dir, cell);
        const CounterSnap before = CounterSnap::now();
        SimResults out;
        EXPECT_FALSE(loadCachedResult(dir, cell, out)) << what;
        EXPECT_EQ(CounterSnap::now().corrupt, before.corrupt + 1) << what;
    }

    // The largest counter is ten varint bytes and still a hit.
    withValues(std::string(9, '\xff') + '\x01').write(dir, cell);
    SimResults out;
    ASSERT_TRUE(loadCachedResult(dir, cell, out));
    EXPECT_EQ(out.metrics.counter("malformed.count"), ~std::uint64_t{0});
}

TEST(ResultCache, SchemaMemoIsSound)
{
    const std::string dir = freshDir("memo");

    // Two schemas in one process, each served with its own columns.
    const GridCell a{"go", quick()};
    GridCell b = a;
    b.config.seed = 5;
    SimResults ra, rb;
    ra.metrics.setUInt("memo.a.count", "schema a", 1);
    ra.metrics.setReal("memo.a.rate", "schema a", 0.5);
    rb.metrics.setReal("memo.b.rate", "schema b", 2.5);
    storeCachedResult(dir, a, ra);
    storeCachedResult(dir, b, rb);
    for (int pass = 0; pass < 2; ++pass) {
        SimResults out;
        ASSERT_TRUE(loadCachedResult(dir, a, out));
        ASSERT_TRUE(out.metrics.sameSchema(ra.metrics));
        EXPECT_EQ(out.metrics.real("memo.a.rate"), 0.5);
        ASSERT_TRUE(loadCachedResult(dir, b, out));
        ASSERT_TRUE(out.metrics.sameSchema(rb.metrics));
        EXPECT_EQ(out.metrics.real("memo.b.rate"), 2.5);
    }

    // A damaged block arriving after its good twin is memoised is not
    // vouched for by the memo: it is verified in full, and fails.
    const EntryParts good = EntryParts::of(dir, a);
    for (std::size_t at : {good.block.size() - 1, good.block.size() / 2,
                           std::size_t{30}}) {
        EntryParts bad = good;
        bad.block[at] = static_cast<char>(bad.block[at] ^ 0x01);
        bad.write(dir, a);
        const CounterSnap before = CounterSnap::now();
        SimResults out;
        EXPECT_FALSE(loadCachedResult(dir, a, out)) << "byte " << at;
        EXPECT_EQ(CounterSnap::now().corrupt, before.corrupt + 1);
    }
    good.write(dir, a);
    SimResults out;
    EXPECT_TRUE(loadCachedResult(dir, a, out));

    // A schema no process has seen yet, decoded by four workers at
    // once (TSan runs ResultCache.*).
    SimConfig config = quick();
    config.seed = 21;
    const std::vector<GridCell> cells = testGrid(config);
    SimResults fresh;
    fresh.metrics.setUInt("memo.jobs4.count", "a brand-new schema", 4);
    fresh.metrics.setReal("memo.jobs4.rate", "a brand-new schema", 0.25);
    for (const GridCell &cell : cells)
        storeCachedResult(dir, cell, fresh);
    const CounterSnap before = CounterSnap::now();
    for (const SimResults &r : runGrid(cells, 4, dir)) {
        ASSERT_TRUE(r.metrics.sameSchema(fresh.metrics));
        EXPECT_EQ(r.metrics.counter("memo.jobs4.count"), 4u);
    }
    EXPECT_EQ(CounterSnap::now().hits, before.hits + cells.size());
}

TEST(ResultCache, EntryWithOtherColumnsIsResimulated)
{
    // What a build with one more stat writes under the same format
    // version: a record with an extra metric under a real cell's key.
    // The grid's records then disagree on their columns; the engine
    // re-simulates the cached cells and repairs the odd entry, so the
    // export equals a cold run.
    const std::vector<GridCell> cells = testGrid(quick());
    const std::string reference = renderCsv(cells, runGrid(cells, 1));

    const std::string dir = freshDir("othercolumns");
    SimResults poisoned = runOne(cells[1].benchmark, cells[1].config);
    poisoned.metrics.setUInt("test.extra_stat", "one stat more", 7);
    storeCachedResult(dir, cells[1], poisoned);

    for (unsigned jobs : {1u, 3u}) {
        const CounterSnap before = CounterSnap::now();
        EXPECT_EQ(renderCsv(cells, runGrid(cells, jobs, dir)), reference)
            << "jobs=" << jobs;
        // First pass: one repaired entry. Second: every cell a hit.
        EXPECT_EQ(CounterSnap::now().corrupt,
                  before.corrupt + (jobs == 1 ? 1 : 0));
        if (jobs == 3) {
            EXPECT_EQ(CounterSnap::now().hits, before.hits + cells.size());
        }
    }
}

TEST(ResultCache, SampledAndDetailedCellsAreAnErrorNotAPanic)
{
    // Sampling is the one setting that changes a record's columns, so a
    // grid sweeping it cannot be one CSV: a user error naming the key,
    // cold or warm.
    const std::string dir = freshDir("samplingmix");
    SimConfig config = quick();
    config.sampling.periodInsts = 4000;
    const std::vector<GridCell> cells = buildSweepGrid(
        {"compress"}, config, {SweepAxis{"sim.sampling.enable", {"0", "1"}}});
    for (int pass = 0; pass < 2; ++pass) {
        const std::vector<SimResults> results = runGrid(cells, 1, dir);
        try {
            renderCsv(cells, results);
            ADD_FAILURE() << "a mixed grid exported";
        } catch (const Error &e) {
            EXPECT_NE(std::string(e.what()).find("sim.sampling.enable"),
                      std::string::npos)
                << e.what();
        }
    }
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
