/**
 * @file
 * vpr_simd — the sweep-as-a-service daemon: a long-lived single-process
 * HTTP/JSON front end over the same sweep machinery vpr_sim drives from
 * the command line. Clients POST a sweep spec (the --sweep grammar as
 * JSON; see src/service/sweep_service.hh for the body format and the
 * endpoint list), the daemon expands it with sim/sweep.hh, runs the
 * cells on the parallel engine, and streams back the merged records,
 * byte-identical to a batch `vpr_sim --sweep ... --out` run.
 *
 * With --result-cache=<dir>, every cell's result is content-addressed
 * on disk, so overlapping sweeps — across requests, daemon restarts,
 * and the batch binaries — are served from cache instead of
 * re-simulated. The directory is this flag's alone: no request body
 * can name one. tools/cache_gc keeps it within a size budget.
 *
 * Usage:
 *   vpr_simd [--host=<addr>] [--port=<n>] [--jobs=<n>]
 *            [--result-cache=<dir>] [--sampling]
 *            [--set <key>=<value>] [--config=<file.json>]
 *            [--dump-config]
 *
 * --port=0 listens on an ephemeral port (the startup line names it).
 * --jobs defaults to VPR_JOBS, else 1. Every flag, VPR_JOBS and
 * VPR_INSTS_SCALE are checked before the daemon listens: a bad one is
 * one "fatal:" line and exit 1. The base configuration is vpr_sim's
 * (driverConfig()), so a request body reproduces a vpr_sim command
 * line field for field.
 */

#include <chrono>
#include <iostream>
#include <optional>
#include <string>

#include "common/logging.hh"
#include "service/http.hh"
#include "service/sweep_service.hh"
#include "sim/experiment.hh"
#include "sim/params.hh"

using namespace vpr;

namespace
{

constexpr const char *kUsage =
    "usage: vpr_simd [--host=<addr>] [--port=<n>] [--jobs=<n>] "
    "[--result-cache=<dir>] [--sampling] [--set <key>=<value>] "
    "[--config=<file.json>] [--dump-config] (see README \"Sweep "
    "service\")";

int
daemonMain(int argc, char **argv)
{
    SimConfig config = driverConfig();

    std::string host = "127.0.0.1";
    std::uint16_t port = 8390;
    std::optional<unsigned> jobsFlag;
    std::string cacheDir;
    ConfigCliArgs cli;

    for (int i = 1; i < argc; ++i) {
        const char *v = nullptr;
        if (parseConfigArg(argc, argv, i, cli)) {
            // --set / --config= / --dump-config / --sampling taken.
        } else if (matchArg(argv[i], "--host", &v)) {
            host = v;
        } else if (matchArg(argv[i], "--port", &v)) {
            port = service::parsePort(v);
        } else if (matchArg(argv[i], "--jobs", &v)) {
            jobsFlag = parseJobs(v, "--jobs");
        } else if (matchArg(argv[i], "--result-cache", &v)) {
            cacheDir = parseCacheDir(v);
        } else {
            VPR_FATAL("unrecognized argument '", argv[i], "'; ", kUsage);
        }
    }

    applyConfigCli(config, cli);
    if (cli.dumpConfig) {
        dumpConfig(std::cout, config);
        return 0;
    }
    // Process-level inputs are checked before the daemon listens.
    const unsigned jobs = jobsFlag ? *jobsFlag : defaultJobs();
    instructionScale();

    service::HttpServer server;
    std::string error;
    if (!server.bindAndListen(host, port, error))
        VPR_FATAL(error);

    service::SweepService sweepService(config, jobs, cacheDir);
    const auto start = std::chrono::steady_clock::now();

    std::cout << "vpr_simd listening on " << host << ":" << server.port()
              << " (jobs=" << jobs << ", result cache: "
              << (cacheDir.empty() ? "off" : cacheDir) << ")\n"
              << std::flush;

    server.serve([&](const service::HttpRequest &request) {
        const auto minute =
            std::chrono::duration_cast<std::chrono::minutes>(
                std::chrono::steady_clock::now() - start)
                .count();
        service::HttpResponse response = sweepService.handle(
            request, static_cast<std::uint64_t>(minute));
        if (sweepService.shutdownRequested())
            server.requestStop();
        return response;
    });

    std::cout << "vpr_simd: shutting down\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain([&] { return daemonMain(argc, argv); });
}
