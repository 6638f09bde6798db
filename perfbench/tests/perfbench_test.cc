/**
 * @file
 * The benchmark's own tests: the request generator is deterministic per
 * seed, the span self-time arithmetic subtracts children correctly, and
 * the traced replay reproduces runGrid bit for bit on a tiny grid.
 * Exits non-zero if any check fails.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "replay.hh"
#include "sim/experiment.hh"
#include "spans.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

int failures = 0;

void
expect(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "FAILED: %s\n", what);
        ++failures;
    }
}

void
generatorIsDeterministicPerSeed()
{
    const std::vector<SweepRequest> a = generateRequests(7, 0, 300);
    const std::vector<SweepRequest> b = generateRequests(7, 0, 300);
    const std::vector<SweepRequest> c = generateRequests(8, 0, 300);
    const std::vector<SweepRequest> d = generateRequests(7, 1, 300);
    bool same = a.size() == b.size();
    bool differs = false;
    bool streamDiffers = false;
    std::set<std::tuple<std::string, unsigned, unsigned>> universe;
    std::size_t lookups = 0;
    for (std::size_t i = 0; same && i < a.size(); ++i) {
        same = a[i].body() == b[i].body();
        differs = differs || a[i].body() != c[i].body();
        streamDiffers = streamDiffers || a[i].body() != d[i].body();
        expect(d[i].seed == 7, "every stream keeps the workload seed");
        expect(!a[i].benchmarks.empty() && a[i].benchmarks.size() <= 3,
               "1-3 benchmarks per request");
        expect(!a[i].regfileSizes.empty() && a[i].regfileSizes.size() <= 4,
               "1-4 regfile sizes per request");
        for (const std::string &bench : a[i].benchmarks)
            for (unsigned size : a[i].regfileSizes)
                universe.emplace(bench, size, a[i].missPenalty);
        lookups += a[i].cellCount();
    }
    expect(same, "same seed, same request sequence");
    expect(differs, "another seed, another request sequence");
    expect(streamDiffers, "another stream, another request sequence");
    // 4 schemes per (benchmark, size, penalty); the universe is 756 cells.
    expect(universe.size() * 4 <= 756, "requests stay in the universe");
    expect(universe.size() * 4 > 600, "300 requests cover most cells");
    expect(lookups > 4 * universe.size() * 4, "most lookups repeat a cell");
    const std::vector<vpr::GridCell> grid = a[0].grid();
    expect(grid.size() == a[0].cellCount(), "grid size matches the request");
    expect(grid[0].config.seed == 7, "the workload seed reaches every cell");
}

void
selfTimesSubtractChildren()
{
    // root [0,100) > a [10,30) > a1 [12,15); root > b [40,50).
    std::vector<Span> s(4);
    s[0] = {"replay", 0, 100, -1};
    s[1] = {"core.detailed", 10, 30, 0};
    s[2] = {"stats.walk", 12, 15, 1};
    s[3] = {"core.ff", 40, 50, 0};
    const std::vector<std::int64_t> self = selfTimes(s);
    expect(self[0] == 70, "parent minus its children");
    expect(self[1] == 17, "child minus its own child");
    expect(self[2] == 3, "leaf keeps its duration");
    expect(self[3] == 10, "sibling keeps its duration");
    const auto layers = selfTimeByLayer(s);
    expect(layers.at("bench") == 70 && layers.at("core") == 27 &&
               layers.at("stats") == 3,
           "self time summed per layer");

    // The recorder nests spans strictly, also when a body throws.
    SpanRecorder rec;
    const std::int32_t root = rec.begin("replay");
    rec.timed("cell", [&] {
        rec.timed("core.ff", [] {});
        try {
            rec.timed("core.detailed", [] { throw std::runtime_error("x"); });
        } catch (const std::runtime_error &) {
        }
    });
    rec.timed("stats.walk", [] {});
    rec.end(root);
    const std::vector<Span> &r = rec.spans();
    expect(r.size() == 5 && r[1].parent == root && r[2].parent == 1 &&
               r[3].parent == 1 && r[4].parent == root,
           "recorder nests spans");
    bool inside = true;
    for (const Span &span : r)
        if (span.parent >= 0) {
            const Span &p = r[static_cast<std::size_t>(span.parent)];
            inside = inside && span.start >= p.start && span.end <= p.end;
        }
    expect(inside, "children lie inside their parent");
}

void
replayMatchesRunGrid(const std::string &dir)
{
    vpr::SimConfig config = vpr::paperConfig();
    config.skipInsts = 2000;
    config.measureInsts = 6000;
    config.core.fetch.wrongPath = vpr::WrongPathMode::Stall;
    config.seed = 3;
    std::vector<vpr::GridCell> cells;
    config.setScheme(vpr::RenameScheme::Conventional);
    cells.push_back({"compress", config});
    config.setScheme(vpr::RenameScheme::VPAllocAtWriteback);
    cells.push_back({"swim", config});
    config.sampling.enable = true;
    config.sampling.periodInsts = 2000;
    cells.push_back({"swim", config});
    config.setScheme(vpr::RenameScheme::VPAllocAtIssue);
    cells.push_back({"go", config});

    const std::vector<vpr::SimResults> expected = vpr::runGrid(cells, 1);
    SpanRecorder spans;
    Replayer replayer(spans);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        expect(sameRecord(replayer.runCell(cells[i]).metrics,
                          expected[i].metrics),
               "replayed cell equals runGrid");
        // Miss (simulate + store), then hit: both equal runGrid.
        expect(sameRecord(replayer.lookupCell(dir, cells[i]).metrics,
                          expected[i].metrics),
               "cache miss path equals runGrid");
        expect(sameRecord(replayer.lookupCell(dir, cells[i]).metrics,
                          expected[i].metrics),
               "cache hit path equals runGrid");
    }
    std::filesystem::remove_all(dir);
    expect(replayer.counts().cacheHits == cells.size() &&
               replayer.counts().cacheMisses == cells.size(),
           "one miss and one hit per cell");
    expect(replayer.counts().allocs > 0, "allocations are counted");
    expect(replayer.counts().ffInsts > 0, "sampled cells fast-forward");
}

} // namespace

int
main(int, char **argv)
{
    generatorIsDeterministicPerSeed();
    selfTimesSubtractChildren();
    // Scratch result cache beside the test binary.
    replayMatchesRunGrid(
        (std::filesystem::path(argv[0]).parent_path() / "perfbench_test_cache")
            .string());
    if (failures == 0)
        std::printf("perfbench_tests: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
