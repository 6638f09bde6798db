#include "service/sweep_service.hh"

#include <chrono>
#include <cstdio>
#include <iomanip>
#include <sstream>
#include <utility>

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

/**
 * Minimal parser for the /sweep request body: one flat JSON object
 * whose values are strings or arrays of strings. That is the whole
 * grammar the endpoint accepts, so nested objects, numbers, booleans
 * and null are rejected up front with a precise message — a daemon must
 * answer 400, not guess.
 */
class FlatJsonParser
{
  public:
    explicit FlatJsonParser(const std::string &text) : text(text) {}

    /** Parsed fields in document order (a repeated key appends). */
    using Fields =
        std::vector<std::pair<std::string, std::vector<std::string>>>;

    bool
    parse(Fields &fields, std::string &error)
    {
        skipSpace();
        if (!consume('{'))
            return fail(error, "expected '{'");
        skipSpace();
        if (consume('}'))
            return atEnd(error);
        for (;;) {
            std::string key;
            if (!parseString(key, error))
                return false;
            skipSpace();
            if (!consume(':'))
                return fail(error, "expected ':' after \"" + key + "\"");
            std::vector<std::string> values;
            if (!parseValue(key, values, error))
                return false;
            fields.emplace_back(std::move(key), std::move(values));
            skipSpace();
            if (consume(',')) {
                skipSpace();
                continue;
            }
            if (consume('}'))
                return atEnd(error);
            return fail(error, "expected ',' or '}'");
        }
    }

  private:
    bool
    fail(std::string &error, const std::string &what) const
    {
        error = what + " at offset " + std::to_string(pos);
        return false;
    }

    bool
    atEnd(std::string &error)
    {
        skipSpace();
        if (pos != text.size())
            return fail(error, "trailing content after object");
        return true;
    }

    void
    skipSpace()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    bool
    consume(char c)
    {
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    parseString(std::string &out, std::string &error)
    {
        skipSpace();
        if (!consume('"'))
            return fail(error, "expected '\"'");
        out.clear();
        while (pos < text.size()) {
            const char c = text[pos++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= text.size())
                break;
            const char esc = text[pos++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 't': out += '\t'; break;
              case 'r': out += '\r'; break;
              default:
                return fail(error, std::string("unsupported escape '\\") +
                                       esc + "'");
            }
        }
        return fail(error, "unterminated string");
    }

    /** A value: one string, or an array of strings. */
    bool
    parseValue(const std::string &key, std::vector<std::string> &values,
               std::string &error)
    {
        skipSpace();
        if (pos < text.size() && text[pos] == '[') {
            ++pos;
            skipSpace();
            if (consume(']'))
                return true;
            for (;;) {
                std::string item;
                if (!parseString(item, error))
                    return false;
                values.push_back(std::move(item));
                skipSpace();
                if (consume(','))
                    continue;
                if (consume(']'))
                    return true;
                return fail(error, "expected ',' or ']' in \"" + key +
                                       "\"");
            }
        }
        std::string item;
        if (!parseString(item, error))
            return fail(error, "field \"" + key +
                                   "\" must be a string or an array of "
                                   "strings");
        values.push_back(std::move(item));
        return true;
    }

    const std::string &text;
    std::size_t pos = 0;
};

HttpResponse
errorResponse(int status, const std::string &message)
{
    HttpResponse response;
    response.status = status;
    response.body = message + "\n";
    return response;
}

/** Non-fatal twin of applyAssignment: apply "key=value" to @p config
 *  through the registry; false + @p error instead of exiting. */
bool
applyAssignmentChecked(SimConfig &config, const std::string &assignment,
                       std::string &error)
{
    const std::size_t eq = assignment.find('=');
    if (eq == std::string::npos || eq == 0) {
        error = "malformed assignment '" + assignment +
                "' (want key=value)";
        return false;
    }
    const std::string key = assignment.substr(0, eq);
    const std::string value = assignment.substr(eq + 1);
    ConfigRegistry registry(config);
    const ParamDef *def = registry.find(key);
    if (!def) {
        error = "unknown parameter '" + key + "'";
        return false;
    }
    if (!def->set(value)) {
        error = "bad value '" + value + "' for " + key + " (" +
                def->type + ")";
        return false;
    }
    return true;
}

/** Non-fatal twin of parseSweepAxis + the grid builder's validation:
 *  parse "key=v1,v2,..." and check every value parses for the key. */
bool
parseSweepAxisChecked(const SimConfig &base, const std::string &spec,
                      SweepAxis &axis, std::string &error)
{
    const std::size_t eq = spec.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
        error = "malformed sweep axis '" + spec +
                "' (want key=v1,v2,...)";
        return false;
    }
    axis.key = spec.substr(0, eq);
    axis.values.clear();
    std::size_t start = eq + 1;
    while (start <= spec.size()) {
        std::size_t comma = spec.find(',', start);
        if (comma == std::string::npos)
            comma = spec.size();
        if (comma == start) {
            error = "empty value in sweep axis '" + spec + "'";
            return false;
        }
        axis.values.push_back(spec.substr(start, comma - start));
        start = comma + 1;
    }

    SimConfig scratch = base;
    ConfigRegistry registry(scratch);
    const ParamDef *def = registry.find(axis.key);
    if (!def) {
        error = "unknown sweep parameter '" + axis.key + "'";
        return false;
    }
    for (const std::string &value : axis.values) {
        if (!def->set(value)) {
            error = "bad value '" + value + "' for " + axis.key + " (" +
                    def->type + ")";
            return false;
        }
    }
    return true;
}

/** Resolve the "target" field: "all" (alone) or benchmark names. */
bool
resolveTargets(const std::vector<std::string> &targets,
               std::vector<std::string> &benchmarks, std::string &error)
{
    const std::vector<std::string> known = benchmarkNames();
    if (targets.size() == 1 && targets[0] == "all") {
        benchmarks = known;
        return true;
    }
    for (const std::string &name : targets) {
        bool found = false;
        for (const std::string &k : known)
            found = found || k == name;
        if (!found) {
            error = "unknown benchmark '" + name +
                    "' (want \"all\" or names from GET /params)";
            return false;
        }
        benchmarks.push_back(name);
    }
    if (benchmarks.empty()) {
        error = "empty target list";
        return false;
    }
    return true;
}

void
serializeCounter(std::ostream &os, const char *name, std::uint64_t value,
                 bool first = false)
{
    os << (first ? "" : ", ") << "\"" << name << "\": " << value;
}

} // namespace

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

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
    FlatJsonParser::Fields fields;
    std::string error;
    if (!FlatJsonParser(body).parse(fields, error))
        return errorResponse(400, "bad JSON body: " + error);

    std::vector<std::string> targets;
    std::vector<std::string> sweeps;
    std::vector<std::string> sets;
    std::string figure = "vpr_simd-sweep";
    std::string format = "csv";
    for (const auto &[key, values] : fields) {
        if (key == "target") {
            targets.insert(targets.end(), values.begin(), values.end());
        } else if (key == "sweep") {
            sweeps.insert(sweeps.end(), values.begin(), values.end());
        } else if (key == "set") {
            sets.insert(sets.end(), values.begin(), values.end());
        } else if (key == "figure" && values.size() == 1) {
            figure = values[0];
        } else if (key == "format" && values.size() == 1) {
            format = values[0];
        } else {
            return errorResponse(400, "unknown or malformed field \"" +
                                          key +
                                          "\" (want target, sweep, set, "
                                          "figure, format)");
        }
    }
    if (format != "csv" && format != "json")
        return errorResponse(400, "bad format '" + format +
                                      "' (want csv or json)");
    if (targets.empty())
        targets.push_back("all");

    std::vector<std::string> benchmarks;
    if (!resolveTargets(targets, benchmarks, error))
        return errorResponse(400, error);

    SimConfig config = base;
    for (const std::string &assignment : sets)
        if (!applyAssignmentChecked(config, assignment, error))
            return errorResponse(400, error);

    std::vector<SweepAxis> axes;
    for (const std::string &spec : sweeps) {
        SweepAxis axis;
        if (!parseSweepAxisChecked(config, spec, axis, error))
            return errorResponse(400, error);
        axes.push_back(std::move(axis));
    }

    // Every key and value is pre-validated, so the fatal()ing sweep
    // helper below cannot fire — the daemon shares its one code path
    // (and its cell order) with the batch binaries.
    const std::vector<GridCell> cells =
        buildSweepGrid(benchmarks, config, axes);
    // Cross-parameter constraints span keys, so only whole cells can be
    // checked: each one exactly as the engine will construct it
    // (instruction scale applied), since the Simulator fatal()s on what
    // validationError() reports.
    for (const GridCell &cell : cells) {
        SimConfig scaled = cell.config;
        applyInstructionScale(scaled);
        const std::string invalid = scaled.validationError();
        if (!invalid.empty())
            return errorResponse(400, "invalid configuration for " +
                                          cell.benchmark + ": " +
                                          invalid);
    }
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
