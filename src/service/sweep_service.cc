#include "service/sweep_service.hh"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <sstream>
#include <utility>

#include "common/json.hh"
#include "common/logging.hh"
#include "sim/experiment.hh"
#include "sim/params.hh"
#include "sim/result_cache.hh"
#include "sim/results_io.hh"
#include "sim/sweep.hh"
#include "trace/kernels/kernels.hh"

namespace vpr::service
{

namespace
{

HttpResponse
errorResponse(int status, const std::string &message)
{
    HttpResponse response;
    response.status = status;
    response.body = message + "\n";
    return response;
}

/** Resolve the "target" field: "all" (alone) or benchmark names. */
std::vector<std::string>
resolveTargets(const std::vector<std::string> &targets)
{
    const std::vector<std::string> known = benchmarkNames();
    if (targets.size() == 1 && targets[0] == "all")
        return known;
    for (const std::string &name : targets)
        if (std::find(known.begin(), known.end(), name) == known.end())
            VPR_FATAL("unknown benchmark '", name,
                      "' (want \"all\" or names from GET /params)");
    return targets;
}

void
serializeCounter(std::ostream &os, const char *name, std::uint64_t value,
                 bool first = false)
{
    os << (first ? "" : ", ") << "\"" << name << "\": " << value;
}

} // namespace

SweepService::SweepService(SimConfig base, unsigned jobs)
    : base(std::move(base)), jobs(jobs)
{
}

RequestTimeSeries &
SweepService::seriesFor(const std::string &path)
{
    if (path == "/sweep")
        return sweepSeries;
    if (path == "/status")
        return statusSeries;
    if (path == "/params")
        return paramsSeries;
    if (path == "/shutdown")
        return shutdownSeries;
    return otherSeries;
}

const RequestTimeSeries &
SweepService::series(const std::string &endpoint) const
{
    return const_cast<SweepService *>(this)->seriesFor(endpoint);
}

HttpResponse
SweepService::handle(const HttpRequest &request, std::uint64_t minute)
{
    const auto start = std::chrono::steady_clock::now();
    HttpResponse response = dispatch(request, minute);
    const auto usec =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    seriesFor(request.path)
        .add(minute, response.status >= 400,
             static_cast<std::uint64_t>(usec));
    return response;
}

HttpResponse
SweepService::dispatch(const HttpRequest &request, std::uint64_t minute)
{
    if (request.path == "/sweep") {
        if (request.method != "POST")
            return errorResponse(405, "use POST /sweep");
        return handleSweep(request.body);
    }
    if (request.path == "/status") {
        if (request.method != "GET")
            return errorResponse(405, "use GET /status");
        HttpResponse response;
        response.contentType = "application/json";
        response.body = statusJson(minute);
        return response;
    }
    if (request.path == "/params") {
        if (request.method != "GET")
            return errorResponse(405, "use GET /params");
        std::ostringstream os;
        printParamHelp(os);
        os << "\nBenchmarks:\n";
        for (const std::string &name : benchmarkNames())
            os << "  " << name << "\n";
        HttpResponse response;
        response.body = os.str();
        return response;
    }
    if (request.path == "/shutdown") {
        if (request.method != "POST")
            return errorResponse(405, "use POST /shutdown");
        shutdown = true;
        HttpResponse response;
        response.body = "shutting down\n";
        return response;
    }
    return errorResponse(404, "no such endpoint '" + request.path +
                                  "' (have /sweep /status /params "
                                  "/shutdown)");
}

HttpResponse
SweepService::handleSweep(const std::string &body)
{
    // Every user error below throws vpr::Error naming its key: a bad
    // body, an unknown key or value, a malformed axis, a cell no core
    // can be built from (the engine validates every cell before running
    // any), or a grid the CSV writer cannot hold (sampled and detailed
    // records mixed). The batch binaries exit 1 on the same Error; the
    // daemon answers 400 and lives on.
    try {
        std::string figure = "vpr_simd-sweep";
        std::string format = "csv";
        std::vector<std::string> targets;
        std::vector<std::string> sweeps;
        std::vector<std::string> sets;
        for (const auto &[key, values] :
             parseFlatJson(body, "body", /*allowArrays=*/true)) {
            if (key == "target") {
                targets.insert(targets.end(), values.begin(),
                               values.end());
            } else if (key == "sweep") {
                sweeps.insert(sweeps.end(), values.begin(), values.end());
            } else if (key == "set") {
                sets.insert(sets.end(), values.begin(), values.end());
            } else if (key == "figure" && values.size() == 1) {
                figure = values[0];
            } else if (key == "format" && values.size() == 1) {
                format = values[0];
            } else {
                VPR_FATAL("unknown or malformed field \"", key,
                          "\" (want target, sweep, set, figure, format)");
            }
        }
        if (format != "csv" && format != "json")
            VPR_FATAL("bad format '", format, "' (want csv or json)");
        checkResultsLabel(figure);
        if (targets.empty())
            targets.push_back("all");

        const std::vector<std::string> benchmarks =
            resolveTargets(targets);
        SimConfig config = base;
        applyAssignments(config, sets);
        std::vector<SweepAxis> axes;
        for (const std::string &spec : sweeps)
            axes.push_back(parseSweepAxis(spec));
        const std::vector<GridCell> cells =
            buildSweepGrid(benchmarks, config, axes);
        const std::vector<SimResults> results = runGrid(cells, jobs);

        std::vector<std::size_t> indices(cells.size());
        for (std::size_t i = 0; i < indices.size(); ++i)
            indices[i] = i;
        std::ostringstream os;
        HttpResponse response;
        if (format == "json") {
            writeResultsJson(os, figure, ShardSpec{}, indices, cells,
                             results);
            response.contentType = "application/json";
        } else {
            writeResultsCsv(os, figure, ShardSpec{}, indices, cells,
                            results);
            response.contentType = "text/csv";
        }
        response.body = os.str();
        return response;
    } catch (const Error &e) {
        return errorResponse(400, e.what());
    }
}

std::string
SweepService::statusJson(std::uint64_t minute) const
{
    const ResultCacheCounters &cache = resultCacheCounters();
    std::ostringstream os;
    os << "{\"service\": \"vpr_simd\"";
    os << ", \"uptime_minutes\": " << minute;
    os << ", \"jobs\": " << jobs;
    os << ", \"scale\": " << std::setprecision(17)
       << instructionScale();
    os << ", \"result_cache\": {\"dir\": \""
       << jsonEscape(base.resultCache.dir) << "\"";
    serializeCounter(os, "hits", cache.hits.load());
    serializeCounter(os, "misses", cache.misses.load());
    serializeCounter(os, "corrupt", cache.corrupt.load());
    serializeCounter(os, "stores", cache.stores.load());
    os << "}, \"endpoints\": {";
    bool first = true;
    for (const char *endpoint :
         {"/sweep", "/status", "/params", "/shutdown", "other"}) {
        os << (first ? "" : ", ") << "\"" << endpoint << "\": ";
        series(endpoint).serializeJson(os, minute);
        first = false;
    }
    os << "}}";
    return os.str();
}

} // namespace vpr::service
