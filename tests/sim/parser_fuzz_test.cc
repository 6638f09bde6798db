/**
 * @file
 * Seeded mutation fuzz of every parser that reads input from outside
 * the program: the /sweep request body, --config JSON, CSV and VPRZ
 * result files, VPRTRACE files and result-cache entries (.vprr): the
 * raw file, and the entry payload and schema text re-packed into valid
 * containers so the mutants get past the checksums to the decoder.
 * Each case starts from a valid input, applies a few random byte
 * edits, and feeds the result to the reader.
 * Every outcome must be a parsed result or a vpr::Error: an abort, a
 * crash, another exception type or a sanitizer report fails the test.
 * The seed is fixed, so a failure reproduces exactly.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <iostream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/io/zio.hh"
#include "service/sweep_service.hh"
#include "sim/params.hh"
#include "sim/result_cache.hh"
#include "sim/results_io.hh"
#include "trace/kernels/kernels.hh"
#include "trace/trace_file.hh"

namespace vpr
{
namespace
{

namespace fs = std::filesystem;

constexpr int kMutations = 1000;

/** Byte-level mutator: 1-3 edits per case, drawn from a fixed seed. */
class Mutator
{
  public:
    explicit Mutator(std::uint64_t seed) : rng(seed) {}

    std::string
    operator()(std::string s)
    {
        const int edits = 1 + static_cast<int>(pick(3));
        for (int e = 0; e < edits; ++e) {
            const std::size_t at = s.empty() ? 0 : pick(s.size());
            switch (pick(6)) {
              case 0:  // flip one bit
                if (!s.empty())
                    s[at] = static_cast<char>(s[at] ^ (1u << pick(8)));
                break;
              case 1:  // overwrite with a boundary byte
                if (!s.empty())
                    s[at] = "\x00\xff\x7f\x80,=\"9"[pick(8)];
                break;
              case 2:  // insert a random byte
                s.insert(s.begin() + static_cast<long>(at),
                         static_cast<char>(pick(256)));
                break;
              case 3:  // delete a short run
                s.erase(at, 1 + pick(8));
                break;
              case 4:  // duplicate a short run
                s.insert(at, s.substr(at, 1 + pick(16)));
                break;
              default:  // truncate
                s.resize(at);
                break;
            }
        }
        return s;
    }

  private:
    std::size_t
    pick(std::size_t n)
    {
        return static_cast<std::size_t>(rng() % n);
    }

    std::mt19937_64 rng;
};

/** Run @p parse on kMutations mutants of @p seed; a vpr::Error is a
 *  rejection, anything else escaping fails the test. Returns how many
 *  mutants parsed, so a test can check both outcomes occur. */
template <typename Parse>
int
fuzz(const std::string &seed, std::uint64_t rngSeed, Parse &&parse)
{
    Mutator mutate(rngSeed);
    int accepted = 0;
    for (int i = 0; i < kMutations; ++i) {
        const std::string input = mutate(seed);
        try {
            parse(input);
            ++accepted;
        } catch (const Error &) {
        }
    }
    return accepted;
}

/** Silence std::cerr (the readers warn on every damaged cache file). */
class QuietCerr
{
  public:
    QuietCerr() : saved(std::cerr.rdbuf(sink.rdbuf())) {}
    ~QuietCerr() { std::cerr.rdbuf(saved); }
    QuietCerr(const QuietCerr &) = delete;
    QuietCerr &operator=(const QuietCerr &) = delete;

  private:
    std::ostringstream sink;
    std::streambuf *saved;
};

/** A cheap, valid configuration for inputs that do reach a simulator. */
SimConfig
tiny()
{
    SimConfig c = paperConfig();
    c.skipInsts = 0;
    c.measureInsts = 150;
    c.core.fetch.wrongPath = WrongPathMode::Stall;
    return c;
}

std::string
scratchDir(const std::string &name)
{
    const fs::path dir = fs::path(::testing::TempDir()) / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

std::string
resultsCsv()
{
    std::vector<GridCell> cells{{"swim", tiny()}, {"go", tiny()}};
    cells[1].config.core.scheme = RenameScheme::Conventional;
    std::vector<SimResults> results(2);
    for (SimResults &r : results) {
        r.metrics.setUInt("core.cycles", "cycles", 1600);
        r.metrics.setReal("core.ipc", "ipc", 1.25);
    }
    std::ostringstream os;
    writeResultsCsv(os, "fuzz", ShardSpec{}, {0, 1}, cells, results);
    return os.str();
}

TEST(ParserFuzz, SweepRequestBody)
{
    SimConfig base = tiny();
    base.measureInsts = 1000;
    service::SweepService service(base, 1);
    const std::string seed =
        "{\"target\": [\"go\"], \"set\": [\"core.scheme=conv\", "
        "\"seed=3\"], \"figure\": \"f\", \"format\": \"json\"}";
    int ok = 0;
    fuzz(seed, 1, [&](const std::string &body) {
        service::HttpRequest request;
        request.method = "POST";
        request.path = "/sweep";
        request.body = body;
        const int status = service.handle(request, 0).status;
        EXPECT_TRUE(status == 200 || status == 400) << body;
        ok += status == 200;
    });
    EXPECT_GT(ok, 0);
    EXPECT_LT(ok, kMutations);
}

TEST(ParserFuzz, ConfigJson)
{
    std::ostringstream dump;
    dumpConfig(dump, tiny());
    const int ok = fuzz(dump.str(), 2, [](const std::string &text) {
        SimConfig config = tiny();
        std::istringstream is(text);
        loadConfig(config, is, "fuzz.json");
        config.validate();
    });
    EXPECT_GT(ok, 0);
    EXPECT_LT(ok, kMutations);
}

TEST(ParserFuzz, ResultsCsv)
{
    const int ok = fuzz(resultsCsv(), 3, [](const std::string &text) {
        std::istringstream is(text);
        readResultsCsv(is, "fuzz.csv");
    });
    EXPECT_GT(ok, 0);
    EXPECT_LT(ok, kMutations);
}

TEST(ParserFuzz, ResultsVprz)
{
    const std::string packed = vprzPack(resultsCsv(), "results", true);
    const int ok = fuzz(packed, 4, [](const std::string &raw) {
        std::istringstream is(vprzUnpack(raw, "results"));
        readResultsCsv(is, "fuzz.vprz");
    });
    EXPECT_LT(ok, kMutations);
}

TEST(ParserFuzz, TraceFileReadAndRun)
{
    const std::string path = scratchDir("vpr_fuzz_trace") + "/t.vprt";
    auto source = makeBenchmarkStream("swim");
    writeTraceFile(path, *source, 200);
    std::string seed;
    ASSERT_TRUE(readFileBytes(path, seed));
    const int ok = fuzz(seed, 5, [&](const std::string &bytes) {
        ASSERT_TRUE(writeFileAtomic(path, bytes));
        FileTraceStream stream(path);
        Simulator sim(stream, tiny());
        sim.run();
    });
    EXPECT_GT(ok, 0);
    EXPECT_LT(ok, kMutations);
}

TEST(ParserFuzz, ResultCacheEntry)
{
    const std::string dir = scratchDir("vpr_fuzz_vprr");
    const GridCell cell("swim", tiny());
    SimResults stored;
    stored.metrics.setUInt("core.cycles", "cycles", 1600);
    stored.metrics.setReal("core.ipc", "ipc", 1.25);
    storeCachedResult(dir, cell, stored);
    const std::string path =
        resultCachePath(dir, cell.benchmark, resultCacheDigest(cell));
    std::string seed;
    ASSERT_TRUE(readFileBytes(path, seed));
    QuietCerr quiet;
    int hits = 0;
    fuzz(seed, 6, [&](const std::string &bytes) {
        ASSERT_TRUE(writeFileAtomic(path, bytes));
        SimResults out;
        hits += loadCachedResult(dir, cell, out);
    });
    EXPECT_LT(hits, kMutations);
}

TEST(ParserFuzz, ResultCachePayload)
{
    // The raw-file fuzz above mostly tests the outer checksum. Here the
    // mutants are re-packed into valid containers, so they reach the
    // header, schema and value parsing: first the whole v3 payload,
    // then the schema text inside its (re-deflated) block.
    const std::string dir = scratchDir("vpr_fuzz_payload");
    const GridCell cell("swim", tiny());
    SimResults stored;
    stored.metrics.setUInt("core.cycles", "cycles simulated", 1600);
    stored.metrics.setUInt("core.zero", "a zero counter", 0);
    stored.metrics.setUInt("core.big", "a ten-byte varint", ~0ull);
    stored.metrics.setReal("core.ipc", "instructions per cycle", 1.25);
    storeCachedResult(dir, cell, stored);
    const std::string path =
        resultCachePath(dir, cell.benchmark, resultCacheDigest(cell));
    std::string raw;
    ASSERT_TRUE(readFileBytes(path, raw));
    const std::string payload = vprzUnpack(raw, "result");
    const std::size_t at = payload.find("\nschema=") + 1;
    const std::size_t nl = payload.find('\n', at);
    const std::size_t blockSize =
        std::stoul(payload.substr(at + 7, nl - at - 7));
    const std::string head = payload.substr(0, at);
    const std::string block = payload.substr(nl + 1, blockSize);
    const std::string values = payload.substr(nl + 1 + blockSize);
    const std::string schemaText = vprzUnpack(block, "schema");

    QuietCerr quiet;
    auto load = [&](const std::string &entryPayload) -> bool {
        EXPECT_TRUE(
            writeFileAtomic(path, vprzPack(entryPayload, "result", false)));
        SimResults out;
        return loadCachedResult(dir, cell, out);
    };
    ASSERT_TRUE(load(payload));

    int hits = 0;
    fuzz(payload, 7, [&](const std::string &mutant) { hits += load(mutant); });
    EXPECT_GT(hits, 0);
    EXPECT_LT(hits, kMutations);

    hits = 0;
    fuzz(schemaText, 8, [&](const std::string &mutant) {
        const std::string packed = vprzPack(mutant, "schema", true);
        hits += load(head + "schema=" + std::to_string(packed.size()) +
                     "\n" + packed + values);
    });
    EXPECT_GT(hits, 0);
    EXPECT_LT(hits, kMutations);
}

} // namespace
} // namespace vpr
