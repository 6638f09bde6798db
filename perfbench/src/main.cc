/**
 * @file
 * perfbench: the repository's end-to-end benchmark (see README.md).
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             --simd <vpr_simd binary> --workdir <scratch dir>
 *
 * With --trace 0 it runs the workload untraced, pass after pass, for
 * --seconds and reports the end-to-end metrics; with --trace 1 it runs
 * one untraced pass, replays it with spans (replay.hh), checks the
 * replay reproduced every output, and reports the per-layer metrics.
 * The last line of standard output is one JSON object: correct,
 * attempted, failed, metrics.
 */

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "daemon.hh"
#include "replay.hh"
#include "sim/experiment.hh"
#include "spans.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

/** A paper run repeats its grid at least this often, so wall_s and the
 *  latency percentiles are medians over several passes. */
constexpr std::size_t kMinPasses = 3;
/** Set-ups timed after every pass. setup_s is the median, over the
 *  run's passes, of each pass's fastest set-up. Host interference only
 *  adds time, and on a shared host it adds about 0.5 ms to a share of
 *  set-ups that changes from run to run; a plain median would jump
 *  between the two modes. A daemon pass adds its own spawn. */
constexpr std::size_t kPaperSetupProbesPerPass = 8;
constexpr std::size_t kDaemonSetupProbesPerPass = 4;
/** Requests per resweep pass: enough for a p95 with 15 samples beyond
 *  it, and enough to touch every cell of the 756-cell universe. */
constexpr std::size_t kRequests = 300;
/** Request streams of a resweep run. One sequence's p95 is set by a few
 *  large cold requests, so a run covers several; it runs whole rounds
 *  over them (at least kMinRounds), so every stream weighs the same in
 *  the medians however fast the host is. */
constexpr std::size_t kStreams = 4;
constexpr std::size_t kMinRounds = 2;
/** Worker threads of the resweep daemon. */
constexpr const char *kDaemonJobs = "--jobs=2";

struct Options
{
    Workload workload = Workload::PaperDetailed;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    bool setupProbe = false;
    std::string simd;
    std::string workdir = ".";
};

[[noreturn]] void
usage(const char *why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload <paper_detailed|"
                 "paper_sampled|resweep_daemon> --seed <n> --seconds <s> "
                 "--trace <0|1> --simd <vpr_simd> --workdir <dir>\n";
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options opt;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--setup-probe") {
            opt.setupProbe = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            haveWorkload = parseWorkload(value, opt.workload);
            if (!haveWorkload)
                usage(("unknown workload " + value).c_str());
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
            if (*end != '\0' || value.empty() || value[0] == '-')
                usage("bad --seed");
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
            if (*end != '\0' || !(opt.seconds > 0))
                usage("bad --seconds");
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                usage("bad --trace");
            opt.trace = value == "1";
        } else if (arg == "--simd") {
            opt.simd = value;
        } else if (arg == "--workdir") {
            opt.workdir = value;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    if (opt.workload == Workload::ResweepDaemon && opt.simd.empty() &&
        !opt.setupProbe)
        usage("resweep_daemon needs --simd");
    return opt;
}

double
seconds(std::int64_t ns)
{
    return static_cast<double>(ns) / 1e9;
}

/** Linear-interpolated quantile @p q in [0, 1]. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

double
mean(const std::vector<double> &v)
{
    return v.empty() ? 0.0
                     : std::accumulate(v.begin(), v.end(), 0.0) /
                           static_cast<double>(v.size());
}

/** Peak resident set of this process (VmHWM), MB. */
double
selfPeakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.compare(0, 6, "VmHWM:") == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

/** core.ipc.sampled.ci95 relative to the sampled mean, in %. */
double
relativeCi95Pct(const vpr::MetricsRecord &m)
{
    return 100.0 * m.real("core.ipc.sampled.ci95") /
           m.real("core.ipc.sampled.mean");
}

/** What a run reports. */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<NamedValue> metrics;

    void
    fail(const std::string &what)
    {
        if (failed < 10)
            std::cerr << "perfbench: FAILED " << what << "\n";
        ++failed;
    }

    /** End-to-end metrics every workload reports. @p passLatMs holds
     *  each pass's request latencies; the percentiles are taken per
     *  pass, then their median over passes, like wall_s. */
    void
    addEndToEnd(double wallS, double setupS, double mips,
                const std::vector<std::vector<double>> &passLatMs,
                double rssMb)
    {
        std::vector<double> p50, p95;
        std::size_t samples = 0;
        for (const std::vector<double> &lat : passLatMs) {
            p50.push_back(quantile(lat, 0.50));
            p95.push_back(quantile(lat, 0.95));
            samples += lat.size();
        }
        std::cout << "latency samples: " << samples << " in "
                  << passLatMs.size() << " passes\n";
        metrics.push_back({"wall_s", wallS, "s"});
        metrics.push_back({"setup_s", setupS, "s"});
        metrics.push_back({"sim_mips", mips, "MIPS"});
        metrics.push_back({"req_p50_ms", median(p50), "ms"});
        metrics.push_back({"req_p95_ms", median(p95), "ms"});
        metrics.push_back({"peak_rss_mb", rssMb, "MB"});
        metrics.push_back(
            {"ok_frac",
             attempted ? 1.0 - static_cast<double>(failed) /
                                   static_cast<double>(attempted)
                       : 0.0,
             "ratio"});
    }

    void
    print() const
    {
        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                    "%llu, \"metrics\": {",
                    failed == 0 && attempted > 0 ? "true" : "false",
                    static_cast<unsigned long long>(attempted),
                    static_cast<unsigned long long>(failed));
        for (std::size_t i = 0; i < metrics.size(); ++i) {
            const double v =
                std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i ? ", " : "", metrics[i].name.c_str(), v,
                        metrics[i].unit.c_str());
        }
        std::printf("}}\n");
        std::fflush(stdout);
    }
};

/** Run @p body; returns what it threw, or an empty string. A cell or
 *  request that throws is a failed operation, not the end of the run. */
template <class Body>
std::string
caught(Body &&body)
{
    try {
        body();
    } catch (const std::exception &e) {
        return std::string("threw: ") + e.what();
    }
    return {};
}

/** Set-up of a paper workload: start this binary with --setup-probe
 *  (process start + grid build) and time it to exit; returns the fastest
 *  of kPaperSetupProbesPerPass probes. posix_spawn keeps the cost
 *  independent of this process's own size. */
double
probePaperSetup(const Options &opt)
{
    std::vector<std::string> text = {"perfbench", "--setup-probe",
                                     "--workload", workloadName(opt.workload),
                                     "--seed", std::to_string(opt.seed)};
    std::vector<char *> argv;
    for (std::string &a : text)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    double fastest = INFINITY;
    for (std::size_t k = 0; k < kPaperSetupProbesPerPass; ++k) {
        const std::int64_t t0 = nowNs();
        pid_t pid = -1;
        if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr,
                        argv.data(), environ) != 0)
            throw std::runtime_error("cannot spawn a setup probe");
        int status = 0;
        waitpid(pid, &status, 0);
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
            throw std::runtime_error("setup probe failed");
        fastest = std::min(fastest, seconds(nowNs() - t0));
    }
    return fastest;
}

/** One untraced pass over the paper grids: every cell through runGrid
 *  (as a one-cell grid, so its latency is seen; at --jobs=1 that is the
 *  loop runGrid runs over a whole grid). */
struct PaperPass
{
    double wall = 0.0;
    std::vector<double> cellMs;
    std::vector<vpr::SimResults> results;  ///< empty for a cell that threw
    std::vector<std::string> errors;       ///< per cell: what it threw
};

PaperPass
runPaperPass(const std::vector<vpr::GridCell> &cells)
{
    PaperPass p;
    p.cellMs.reserve(cells.size());
    p.results.reserve(cells.size());
    const std::int64_t t0 = nowNs();
    for (const vpr::GridCell &cell : cells) {
        const std::int64_t c0 = nowNs();
        vpr::SimResults r;
        p.errors.push_back(
            caught([&] { r = std::move(vpr::runGrid({cell}, 1).front()); }));
        p.results.push_back(std::move(r));
        p.cellMs.push_back(static_cast<double>(nowNs() - c0) / 1e6);
    }
    p.wall = seconds(nowNs() - t0);
    return p;
}

/** Per-layer metrics that come from outside the replay's spans. */
struct ExtraLayerValues
{
    double untracedWall = 0.0;  ///< the untraced pass the replay re-runs
    double serverMs = 0.0;
    double httpMs = 0.0;
    DaemonStatus status;
    double ci95Pct = 0.0;
    std::uint64_t mismatches = 0;
};

/** Report a traced run: per-layer table, Chrome trace, metrics. */
void
reportTrace(const Options &opt, const SpanRecorder &spans,
            const ReplayCounts &counts, const ExtraLayerValues &extra,
            Outcome &out)
{
    const double traceNs = traceNsPerRecord(counts.ffByBenchmark, opt.seed);
    out.metrics = layerMetrics(spans.spans(), counts, traceNs);
    out.metrics.push_back({"service.server_ms", extra.serverMs, "ms"});
    out.metrics.push_back({"service.http_ms", extra.httpMs, "ms"});
    out.metrics.push_back({"service.cache_hits",
                           static_cast<double>(extra.status.cacheHits),
                           "count"});
    out.metrics.push_back({"service.cache_misses",
                           static_cast<double>(extra.status.cacheMisses),
                           "count"});
    out.metrics.push_back({"service.cache_stores",
                           static_cast<double>(extra.status.cacheStores),
                           "count"});
    const std::vector<Span> &all = spans.spans();
    const double wall = static_cast<double>(all.front().end -
                                            all.front().start);
    out.metrics.push_back(
        {"replay.wall_ratio", wall / 1e9 / extra.untracedWall, "ratio"});
    out.metrics.push_back(
        {"replay.mismatches", static_cast<double>(extra.mismatches),
         "count"});
    out.metrics.push_back({"sampled_ci95_pct", extra.ci95Pct, "%"});

    std::printf("%-14s %12s %8s\n", "layer", "self_ms", "share");
    double attributed = 0.0;
    for (const auto &[layer, ns] : selfTimeByLayer(all)) {
        std::printf("%-14s %12.3f %8.4f\n", layer.c_str(),
                    static_cast<double>(ns) / 1e6,
                    static_cast<double>(ns) / wall);
        if (layer != "bench")
            attributed += static_cast<double>(ns);
    }
    std::printf("%-14s %12.3f %8.4f  (%zu spans)\n", "replay wall",
                wall / 1e6, 1.0, all.size());
    for (const NamedValue &m : out.metrics)
        std::printf("  %-28s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    // The layers' self times must account for the replay wall. This
    // check, like every check that can fail a run, counts as attempted.
    ++out.attempted;
    if (attributed < 0.95 * wall)
        out.fail("layer self times cover only " +
                 std::to_string(attributed / wall) + " of the replay wall");

    const std::string path = opt.workdir + "/trace-" +
                             workloadName(opt.workload) + "-seed" +
                             std::to_string(opt.seed) + ".json";
    std::ofstream os(path);
    writeChromeTrace(os, all);
    std::cout << "chrome trace: " << path << "\n";
}

int
runPaper(const Options &opt)
{
    const bool sampled = opt.workload == Workload::PaperSampled;
    const std::uint64_t minIntervals = sampled ? kMinSampledIntervals : 0;

    std::vector<vpr::GridCell> cells;
    for (const std::string &figure : paperFigures())
        for (vpr::GridCell &cell : buildFigureGrid(figure, sampled, opt.seed))
            cells.push_back(std::move(cell));
    std::uint64_t instsPerPass = 0;
    for (const vpr::GridCell &cell : cells)
        instsPerPass += cellInstructions(cell);

    Outcome out;
    std::vector<bool> bad(cells.size(), false);
    auto check = [&](const PaperPass &p, const PaperPass *first) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            ++out.attempted;
            std::string why =
                p.errors[i].empty()
                    ? checkCell(cells[i], p.results[i], minIntervals)
                    : p.errors[i];
            if (why.empty() && first &&
                !sameRecord(p.results[i].metrics, first->results[i].metrics))
                why = "record differs from the first pass";
            if (!why.empty()) {
                bad[i] = true;
                out.fail("cell " + std::to_string(i) + " (" +
                         cells[i].benchmark + "): " + why);
            }
        }
    };

    const PaperPass first = runPaperPass(cells);
    check(first, nullptr);
    MetricDigest digest;
    for (std::size_t i = 0; i < cells.size(); ++i)
        digest.addRecord(cells[i].benchmark, first.results[i]);
    std::cout << "digest " << workloadName(opt.workload) << " "
              << digest.hex() << " (" << cells.size() << " cells, seed "
              << opt.seed << ")\n";

    if (!opt.trace) {
        std::vector<double> walls = {first.wall};
        std::vector<std::vector<double>> latMs = {first.cellMs};
        std::vector<double> setups = {probePaperSetup(opt)};
        double elapsed = first.wall;
        while (walls.size() < kMinPasses || elapsed < opt.seconds) {
            const PaperPass p = runPaperPass(cells);
            check(p, &first);
            walls.push_back(p.wall);
            latMs.push_back(p.cellMs);
            elapsed += p.wall;
            setups.push_back(probePaperSetup(opt));
        }
        std::cout << "passes: " << walls.size() << ", setup samples: "
                  << setups.size() * kPaperSetupProbesPerPass << "\n";
        const double wall = median(walls);
        out.addEndToEnd(wall, median(setups),
                        static_cast<double>(instsPerPass) / wall / 1e6, latMs,
                        selfPeakRssMb());
        out.print();
        return 0;
    }

    SpanRecorder spans;
    Replayer replayer(spans);
    std::vector<vpr::SimResults> replayed;
    const std::int32_t root = spans.begin("replay");
    for (const std::string &figure : paperFigures()) {
        const std::int32_t id = spans.begin("figure");
        for (const vpr::GridCell &cell :
             replayer.buildFigure(figure, sampled, opt.seed)) {
            // A cell that throws replays as an empty record, which the
            // comparison below catches.
            vpr::SimResults r;
            const std::string error =
                caught([&] { r = replayer.runCell(cell); });
            if (!error.empty())
                std::cerr << "perfbench: replayed cell " << replayed.size()
                          << " " << error << "\n";
            replayed.push_back(std::move(r));
        }
        spans.end(id);
    }
    spans.end(root);

    ExtraLayerValues extra;
    double ci95Sum = 0.0;
    std::size_t ci95Cells = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i >= replayed.size() ||
            !sameRecord(replayed[i].metrics, first.results[i].metrics)) {
            ++extra.mismatches;
            if (!bad[i])
                out.fail("cell " + std::to_string(i) +
                         ": replay differs from runGrid");
        }
        if (sampled && !bad[i]) {
            ci95Sum += relativeCi95Pct(first.results[i].metrics);
            ++ci95Cells;
        }
    }
    extra.ci95Pct = ci95Cells ? ci95Sum / static_cast<double>(ci95Cells) : 0.0;
    extra.untracedWall = first.wall;
    reportTrace(opt, spans, replayer.counts(), extra, out);
    out.print();
    return 0;
}

/** One untraced resweep pass: a fresh daemon over a fresh result cache,
 *  one closed-loop client sending every request in order. */
struct ResweepPass
{
    double setup = 0.0;
    double wall = 0.0;
    double rssMb = 0.0;
    std::vector<double> latMs;
    std::vector<int> statuses;
    std::vector<std::string> bodies;
    DaemonStatus status;
};

ResweepPass
runResweepPass(const Options &opt, const std::vector<std::string> &bodies,
               const std::string &cacheDir)
{
    std::filesystem::remove_all(cacheDir);
    std::filesystem::create_directories(cacheDir);
    ResweepPass p;
    {
        Daemon daemon(opt.simd, {kDaemonJobs, "--result-cache=" + cacheDir});
        p.setup = daemon.setupSeconds();
        const std::int64_t t0 = nowNs();
        for (const std::string &body : bodies) {
            const std::int64_t r0 = nowNs();
            vpr::service::HttpResponse response;
            const std::string error = caught(
                [&] { response = daemon.request("POST", "/sweep", body); });
            p.latMs.push_back(static_cast<double>(nowNs() - r0) / 1e6);
            // Status 0: the exchange itself failed.
            p.statuses.push_back(error.empty() ? response.status : 0);
            p.bodies.push_back(error.empty() ? std::move(response.body)
                                             : error);
        }
        p.wall = seconds(nowNs() - t0);
        // A daemon that died mid-pass has failed its remaining requests
        // already; its status reads as zeros.
        const std::string error = caught([&] {
            p.status = parseStatus(daemon.request("GET", "/status").body);
            p.rssMb = daemon.peakRssMb();
        });
        if (!error.empty())
            std::cerr << "perfbench: daemon status " << error << "\n";
        daemon.stop();
    }
    std::filesystem::remove_all(cacheDir);
    return p;
}

int
runResweep(const Options &opt)
{
    const std::string tag = std::to_string(getpid());
    const std::string cacheDir = opt.workdir + "/cache-" + tag;
    // A traced run sends stream 0 once, then replays it.
    const std::size_t nStreams = opt.trace ? 1 : kStreams;
    std::vector<std::vector<SweepRequest>> requests(nStreams);
    std::vector<std::vector<std::string>> bodies(nStreams);
    for (std::size_t k = 0; k < nStreams; ++k) {
        requests[k] = generateRequests(opt.seed, k, kRequests);
        for (const SweepRequest &r : requests[k])
            bodies[k].push_back(r.body());
    }

    Outcome out;
    // Response-body hashes of each stream's first pass: every later pass
    // of that stream must get the same bodies.
    std::vector<std::vector<std::size_t>> firstHashes(nStreams);
    // Requests of stream 0's first pass that failed.
    std::vector<bool> firstBad;
    auto pass = [&](std::size_t k) {
        ResweepPass p = runResweepPass(opt, bodies[k], cacheDir);
        const bool first = firstHashes[k].empty();
        for (std::size_t i = 0; i < p.bodies.size(); ++i) {
            ++out.attempted;
            const std::size_t hash = std::hash<std::string>{}(p.bodies[i]);
            std::string why =
                p.statuses[i] != 200
                    ? "HTTP " + std::to_string(p.statuses[i]) + ": " +
                          p.bodies[i].substr(0, 200)
                    : checkCsvBody(p.bodies[i], requests[k][i].cellCount());
            if (first)
                firstHashes[k].push_back(hash);
            else if (why.empty() && hash != firstHashes[k][i])
                why = "body differs from the stream's first pass";
            if (first && k == 0)
                firstBad.push_back(!why.empty());
            if (!why.empty())
                out.fail("stream " + std::to_string(k) + " request " +
                         std::to_string(i) + ": " + why);
        }
        return p;
    };

    const ResweepPass first = pass(0);
    MetricDigest digest;
    for (const std::string &body : first.bodies)
        digest.addCsv(body);
    std::cout << "digest " << workloadName(opt.workload) << " "
              << digest.hex() << " (" << first.bodies.size()
              << " requests, " << first.status.cacheMisses << " misses, seed "
              << opt.seed << ")\n";

    if (!opt.trace) {
        const double cellInsts =
            static_cast<double>(kRequestSkipInsts + kRequestMeasureInsts);
        std::vector<double> walls, setups, rss, mips;
        std::vector<std::vector<double>> latMs;
        auto record = [&](const ResweepPass &p) {
            walls.push_back(p.wall);
            rss.push_back(p.rssMb);
            mips.push_back(static_cast<double>(p.status.cacheMisses) *
                           cellInsts / p.wall / 1e6);
            latMs.push_back(p.latMs);
            // More spawn-to-listening samples, without requests.
            double fastest = p.setup;
            std::filesystem::create_directories(cacheDir);
            for (std::size_t k = 0; k < kDaemonSetupProbesPerPass; ++k) {
                Daemon daemon(opt.simd,
                              {kDaemonJobs, "--result-cache=" + cacheDir});
                fastest = std::min(fastest, daemon.setupSeconds());
                daemon.stop();
            }
            std::filesystem::remove_all(cacheDir);
            setups.push_back(fastest);
        };
        record(first);
        double elapsed = first.wall;
        // Whole rounds over the streams: at least kMinRounds, then as
        // many as bring the run closest to --seconds.
        for (std::size_t n = 1;; ++n) {
            if (n % kStreams == 0 && n >= kMinRounds * kStreams) {
                const double round =
                    elapsed / static_cast<double>(n / kStreams);
                if (elapsed + round / 2 >= opt.seconds)
                    break;
            }
            const ResweepPass p = pass(n % kStreams);
            record(p);
            elapsed += p.wall;
        }
        std::cout << "passes: " << walls.size() << " (" << kStreams
                  << " request streams), setup samples: "
                  << setups.size() * (kDaemonSetupProbesPerPass + 1) << "\n";
        out.addEndToEnd(median(walls), median(setups), median(mips), latMs,
                        median(rss));
        out.print();
        return 0;
    }

    const std::string replayDir = opt.workdir + "/replay-cache-" + tag;
    std::filesystem::remove_all(replayDir);
    std::filesystem::create_directories(replayDir);
    SpanRecorder spans;
    Replayer replayer(spans);
    ExtraLayerValues extra;
    double ci95Sum = 0.0;
    std::size_t sampledCells = 0;
    const std::int32_t root = spans.begin("replay");
    for (std::size_t i = 0; i < requests[0].size(); ++i) {
        // A request that throws replays as an empty body, which the
        // comparison below catches.
        std::vector<vpr::SimResults> results;
        std::string body;
        const std::string error = caught([&] {
            spans.timed("request", [&] {
                const std::vector<vpr::GridCell> cells =
                    replayer.buildRequest(requests[0][i]);
                for (const vpr::GridCell &cell : cells)
                    results.push_back(replayer.lookupCell(replayDir, cell));
                body = replayer.writeCsv(cells, results);
            });
        });
        if (!error.empty())
            std::cerr << "perfbench: replayed request " << i << " " << error
                      << "\n";
        else
            for (const vpr::SimResults &r : results) {
                ci95Sum += relativeCi95Pct(r.metrics);
                ++sampledCells;
            }
        if (body != first.bodies[i]) {
            ++extra.mismatches;
            if (!firstBad[i])
                out.fail("request " + std::to_string(i) +
                         ": replay CSV differs from the daemon's body");
        }
    }
    spans.end(root);
    std::filesystem::remove_all(replayDir);

    const ReplayCounts &counts = replayer.counts();
    extra.status = first.status;
    ++out.attempted;
    if (counts.cacheHits != first.status.cacheHits ||
        counts.cacheMisses != first.status.cacheMisses ||
        counts.cacheStores != first.status.cacheStores)
        out.fail("daemon cache counts differ from the replay's");
    extra.serverMs = first.status.sweepMeanMs;
    extra.httpMs = mean(first.latMs) - first.status.sweepMeanMs;
    extra.ci95Pct =
        sampledCells ? ci95Sum / static_cast<double>(sampledCells) : 0.0;
    extra.untracedWall = first.wall;
    reportTrace(opt, spans, counts, extra, out);
    out.print();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseOptions(argc, argv);
    // Read once per process by the engine; set before anything runs.
    char scale[32];
    std::snprintf(scale, sizeof(scale), "%g", workloadScale(opt.workload));
    setenv("VPR_INSTS_SCALE", scale, 1);

    try {
        if (opt.setupProbe) {
            if (opt.workload != Workload::ResweepDaemon)
                for (const std::string &figure : paperFigures())
                    buildFigureGrid(figure,
                                    opt.workload == Workload::PaperSampled,
                                    opt.seed);
            return 0;
        }
        std::filesystem::create_directories(opt.workdir);
        return opt.workload == Workload::ResweepDaemon ? runResweep(opt)
                                                       : runPaper(opt);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
