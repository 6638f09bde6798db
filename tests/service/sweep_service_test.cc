/**
 * @file
 * The sweep daemon's endpoint surface, tested without sockets: request
 * in, response out. The load-bearing property is that POST /sweep is
 * byte-identical to the batch path (buildSweepGrid + runGrid +
 * writeResultsCsv) for the same spec; around it, every malformed input
 * must map to a 400 with a useful message (never a daemon exit), the
 * result cache must serve repeated sweeps, and /status must report the
 * per-endpoint time series.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "service/sweep_service.hh"
#include "sim/experiment.hh"
#include "sim/result_cache.hh"
#include "sim/results_io.hh"
#include "sim/sweep.hh"

namespace vpr::service
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

HttpRequest
post(const std::string &path, const std::string &body)
{
    HttpRequest r;
    r.method = "POST";
    r.path = path;
    r.body = body;
    return r;
}

HttpRequest
get(const std::string &path)
{
    HttpRequest r;
    r.method = "GET";
    r.path = path;
    return r;
}

/** What the batch path renders for the same grid. */
std::string
batchCsv(const SimConfig &base, const std::string &figure)
{
    const std::vector<GridCell> cells = buildSweepGrid(
        {"go"}, base,
        {SweepAxis{"core.rename.regfile_size", {"48", "64"}}});
    const std::vector<SimResults> results = runGrid(cells, 1);
    std::vector<std::size_t> indices(cells.size());
    for (std::size_t i = 0; i < indices.size(); ++i)
        indices[i] = i;
    std::ostringstream os;
    writeResultsCsv(os, figure, ShardSpec{}, indices, cells, results);
    return os.str();
}

const char *kSweepBody =
    "{\"target\": \"go\", "
    "\"sweep\": [\"core.rename.regfile_size=48,64\"], "
    "\"figure\": \"svc-test\"}";

TEST(SweepService, SweepMatchesBatchPathByteForByte)
{
    SweepService service(quick(), /*jobs=*/1);
    const HttpResponse response =
        service.handle(post("/sweep", kSweepBody), 0);
    ASSERT_EQ(response.status, 200) << response.body;
    EXPECT_EQ(response.contentType, "text/csv");
    EXPECT_EQ(response.body, batchCsv(quick(), "svc-test"));
}

TEST(SweepService, SetOverridesAndJsonFormat)
{
    SweepService service(quick(), 1);
    const HttpResponse response = service.handle(
        post("/sweep",
             "{\"target\": \"go\", "
             "\"sweep\": \"core.rename.regfile_size=48,64\", "
             "\"set\": [\"measure_insts=10000\"], "
             "\"figure\": \"svc-test\", \"format\": \"json\"}"),
        0);
    ASSERT_EQ(response.status, 200) << response.body;
    EXPECT_EQ(response.contentType, "application/json");

    SimConfig overridden = quick();
    overridden.measureInsts = 10000;
    const std::vector<GridCell> cells = buildSweepGrid(
        {"go"}, overridden,
        {SweepAxis{"core.rename.regfile_size", {"48", "64"}}});
    const std::vector<SimResults> results = runGrid(cells, 1);
    std::vector<std::size_t> indices{0, 1};
    std::ostringstream os;
    writeResultsJson(os, "svc-test", ShardSpec{}, indices, cells,
                     results);
    EXPECT_EQ(response.body, os.str());
}

TEST(SweepService, RepeatedSweepIsServedFromResultCache)
{
    const std::string dir =
        (fs::path(::testing::TempDir()) / "vpr_svc_cache").string();
    fs::remove_all(dir);
    SweepService service(quick(), 1, dir);

    const std::uint64_t hits0 = resultCacheCounters().hits.load();
    const HttpResponse first =
        service.handle(post("/sweep", kSweepBody), 0);
    ASSERT_EQ(first.status, 200) << first.body;
    EXPECT_EQ(resultCacheCounters().hits.load(), hits0);

    const HttpResponse second =
        service.handle(post("/sweep", kSweepBody), 1);
    ASSERT_EQ(second.status, 200);
    EXPECT_EQ(second.body, first.body);
    EXPECT_EQ(resultCacheCounters().hits.load(), hits0 + 2);  // 2 cells
}

TEST(SweepService, SamplingSweepIs400NotAnAbort)
{
    // Sampled and detailed records have different columns, so this grid
    // cannot be one CSV export; it once aborted the daemon in the
    // exporter. Cold and warm cache alike, the answer is a 400 naming
    // the key, and the daemon lives on.
    const std::string dir =
        (fs::path(::testing::TempDir()) / "vpr_svc_sampling").string();
    fs::remove_all(dir);
    SweepService service(quick(), 2, dir);
    const char *body =
        "{\"target\":[\"compress\"],\"sweep\":[\"sim.sampling.enable=0,1\"],"
        "\"set\":[\"measure_insts=40000\",\"sim.sampling.period_insts=4000\"]}";
    for (int pass = 0; pass < 2; ++pass) {
        const HttpResponse response = service.handle(post("/sweep", body), 0);
        EXPECT_EQ(response.status, 400);
        EXPECT_NE(response.body.find("sim.sampling.enable"),
                  std::string::npos)
            << response.body;
    }
    EXPECT_EQ(service.handle(get("/status"), 0).status, 200);
    const HttpResponse ok = service.handle(post("/sweep", kSweepBody), 0);
    ASSERT_EQ(ok.status, 200) << ok.body;
    EXPECT_EQ(ok.body, batchCsv(quick(), "svc-test"));
}

TEST(SweepService, CachedRecordWithOtherColumnsIsRepaired)
{
    // A cache entry holding one metric more than this build exports
    // (what a build with one more stat writes under the same format
    // version) once aborted the daemon when a sweep mixed it with fresh
    // cells. The answer is a 200 byte-equal to a cold run.
    const std::string dir =
        (fs::path(::testing::TempDir()) / "vpr_svc_columns").string();
    fs::remove_all(dir);
    const GridCell cell{"go", quick()};
    SimResults poisoned = runOne(cell.benchmark, cell.config);
    poisoned.metrics.setUInt("test.extra_stat", "one stat more", 7);
    storeCachedResult(dir, cell, poisoned);

    SweepService service(quick(), 1, dir);
    const char *body = "{\"target\": \"go\", "
                       "\"sweep\": [\"core.scheme=vp-wb,conv\"], "
                       "\"figure\": \"svc-test\"}";
    const std::uint64_t corrupt0 = resultCacheCounters().corrupt.load();
    const HttpResponse response = service.handle(post("/sweep", body), 0);
    ASSERT_EQ(response.status, 200) << response.body;
    EXPECT_EQ(resultCacheCounters().corrupt.load(), corrupt0 + 1);

    const std::vector<GridCell> cells = buildSweepGrid(
        {"go"}, quick(), {SweepAxis{"core.scheme", {"vp-wb", "conv"}}});
    std::ostringstream cold;
    writeResultsCsv(cold, "svc-test", ShardSpec{}, {0, 1}, cells,
                    runGrid(cells, 1));
    EXPECT_EQ(response.body, cold.str());
    EXPECT_EQ(service.handle(post("/sweep", body), 0).body, cold.str());
    EXPECT_EQ(service.handle(get("/status"), 0).status, 200);
}

TEST(SweepService, CacheDirectoryInABodyIs400AndNeverCreated)
{
    // The result-cache directory is the daemon's --result-cache flag
    // alone: a body that sets or sweeps it is a 400 naming the key, and
    // nothing appears where it points.
    const std::string dir =
        (fs::path(::testing::TempDir()) / "vpr_svc_body_cache").string();
    fs::remove_all(dir);
    fs::remove_all(dir + "-b");
    SweepService service(quick(), 1);
    for (const std::string &body :
         {"{\"target\": \"go\", \"set\": [\"sim.result_cache.dir=" + dir +
              "\"]}",
          "{\"target\": \"go\", \"sweep\": [\"sim.result_cache.dir=" +
              dir + "," + dir + "-b\"]}"}) {
        const HttpResponse response =
            service.handle(post("/sweep", body), 0);
        EXPECT_EQ(response.status, 400) << body;
        EXPECT_NE(response.body.find("sim.result_cache.dir"),
                  std::string::npos)
            << response.body;
    }
    EXPECT_FALSE(fs::exists(dir));
    EXPECT_FALSE(fs::exists(dir + "-b"));
}

TEST(SweepService, BadRequestsAre400NeverFatal)
{
    // tests/data/bad_requests.txt: one bad body per line, after the
    // '|'-separated texts its 400 must contain and a tab. It holds every
    // input that once killed or hung the daemon: malformed bodies, bad
    // keys and values, and cells no core can be built from.
    std::ifstream corpus(VPR_TEST_DATA_DIR "/bad_requests.txt");
    ASSERT_TRUE(corpus) << "missing bad-request corpus";
    SweepService service(quick(), 1);
    std::size_t bodies = 0;
    std::string line;
    while (std::getline(corpus, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const std::size_t tab = line.find('\t');
        ASSERT_NE(tab, std::string::npos) << "no tab in '" << line << "'";
        const std::string body = line.substr(tab + 1);
        const HttpResponse response =
            service.handle(post("/sweep", body), 0);
        EXPECT_EQ(response.status, 400) << body;
        std::istringstream needles(line.substr(0, tab));
        for (std::string n; std::getline(needles, n, '|');)
            EXPECT_NE(response.body.find(n), std::string::npos)
                << "response '" << response.body << "' to " << body
                << " should mention '" << n << "'";
        ++bodies;
    }
    EXPECT_GE(bodies, 40u);
    EXPECT_EQ(service.series("/sweep").totalErrors(), bodies);

    // And the daemon is still there to answer.
    const HttpResponse status = service.handle(get("/status"), 0);
    EXPECT_EQ(status.status, 200);
    EXPECT_NE(status.body.find("\"service\": \"vpr_simd\""),
              std::string::npos);
    EXPECT_EQ(service.handle(post("/sweep", kSweepBody), 0).status, 200);
}

TEST(SweepService, MethodAndPathDispatch)
{
    SweepService service(quick(), 1);
    EXPECT_EQ(service.handle(get("/sweep"), 0).status, 405);
    EXPECT_EQ(service.handle(post("/status", ""), 0).status, 405);
    EXPECT_EQ(service.handle(post("/params", ""), 0).status, 405);
    EXPECT_EQ(service.handle(get("/shutdown"), 0).status, 405);
    EXPECT_EQ(service.handle(get("/nope"), 0).status, 404);

    // The catch-all bucket records unknown paths as errors.
    EXPECT_EQ(service.series("other").totalRequests(), 1u);
    EXPECT_EQ(service.series("other").totalErrors(), 1u);
    // Known-path misuses land on their endpoint's series.
    EXPECT_EQ(service.series("/sweep").totalErrors(), 1u);

    const HttpResponse params = service.handle(get("/params"), 0);
    EXPECT_EQ(params.status, 200);
    EXPECT_NE(params.body.find("core.rename.regfile_size"),
              std::string::npos);
    EXPECT_NE(params.body.find("go"), std::string::npos);

    EXPECT_FALSE(service.shutdownRequested());
    EXPECT_EQ(service.handle(post("/shutdown", ""), 0).status, 200);
    EXPECT_TRUE(service.shutdownRequested());
}

TEST(SweepService, StatusReportsSeriesAndCacheCounters)
{
    SweepService service(quick(), 3);
    service.handle(get("/nope"), 0);
    service.handle(get("/nope"), 2);
    const HttpResponse status = service.handle(get("/status"), 2);
    ASSERT_EQ(status.status, 200);
    EXPECT_EQ(status.contentType, "application/json");

    const std::string &doc = status.body;
    EXPECT_NE(doc.find("\"service\": \"vpr_simd\""), std::string::npos);
    EXPECT_NE(doc.find("\"uptime_minutes\": 2"), std::string::npos);
    EXPECT_NE(doc.find("\"jobs\": 3"), std::string::npos);
    EXPECT_NE(doc.find("\"result_cache\""), std::string::npos);
    EXPECT_NE(doc.find("\"hits\""), std::string::npos);
    for (const char *endpoint :
         {"\"/sweep\"", "\"/status\"", "\"/params\"", "\"/shutdown\"",
          "\"other\""})
        EXPECT_NE(doc.find(endpoint), std::string::npos) << endpoint;
    // The catch-all series: one 404 at minute 0, one at minute 2 —
    // most recent first.
    EXPECT_NE(doc.find("\"requests\": [1, 0, 1]"), std::string::npos)
        << doc;
}

TEST(SweepService, JsonEscape)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(jsonEscape("x\n\t\r"), "x\\n\\t\\r");
    EXPECT_EQ(jsonEscape(std::string("\x01", 1)), "\\u0001");
}

} // namespace
} // namespace vpr::service
