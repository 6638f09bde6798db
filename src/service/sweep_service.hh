/**
 * @file
 * The sweep daemon's request handling, factored away from sockets:
 * SweepService maps one parsed HttpRequest to one HttpResponse, so the
 * whole endpoint surface is unit-testable without ever binding a port
 * (vpr_simd wires it behind HttpServer; the tests call handle()
 * directly).
 *
 * Endpoints:
 *
 *  - POST /sweep — body is a small flat JSON object mirroring the
 *    vpr_sim --sweep grammar:
 *
 *      {"target": "all",
 *       "sweep": ["core.rename.regfile_size=48,64,96",
 *                 "core.scheme=conv,vp-wb"],
 *       "set": ["measure_insts=120000"],
 *       "figure": "fig7_regfile_size",
 *       "format": "csv"}
 *
 *    "target" is "all" or a benchmark list; "sweep"/"set" accept a
 *    string or an array of strings; "figure" labels the records
 *    (default "vpr_simd-sweep"; [A-Za-z0-9._-] only, see
 *    checkResultsLabel); "format" is "csv" (default) or "json". The
 *    grid is expanded with sim/sweep.hh, run on the
 *    parallel engine (with the result cache, when configured), and the
 *    merged records come back as the response body — byte-identical to
 *    what `vpr_sim --sweep ... --out` writes for the same spec.
 *    Validation is non-fatal: a bad key, value, or benchmark is a 400
 *    naming the offender, never a daemon exit.
 *
 *  - GET /status — JSON: uptime, jobs, instruction scale, result-cache
 *    configuration + hit/miss/corrupt/store counters, and per-endpoint
 *    request/error/latency minute-ring time series (time_series.hh).
 *
 *  - GET /params — the parameter reference (--help-params text).
 *
 *  - POST /shutdown — ask the daemon to exit after this response.
 */

#ifndef VPR_SERVICE_SWEEP_SERVICE_HH
#define VPR_SERVICE_SWEEP_SERVICE_HH

#include <cstdint>
#include <string>

#include "service/http.hh"
#include "service/time_series.hh"
#include "sim/config.hh"

namespace vpr::service
{

class SweepService
{
  public:
    /**
     * @param base configuration every request starts from (the daemon's
     *        command line: paper defaults + --set/--config overrides)
     * @param jobs worker threads per sweep (0 = one per hardware thread)
     * @param cacheDir result-cache directory every sweep runs through
     *        (--result-cache; empty = none). A request cannot name one.
     */
    SweepService(SimConfig base, unsigned jobs,
                 std::string cacheDir = {});

    /**
     * Handle one request. @p minute is the request's minute index
     * (minutes since daemon start) for the time series — passed in, not
     * read from a clock, so tests control rotation.
     */
    HttpResponse handle(const HttpRequest &request, std::uint64_t minute);

    /** True once a POST /shutdown has been served. */
    bool shutdownRequested() const { return shutdown; }

    /** Per-endpoint series, for the /status page and the tests.
     *  @p endpoint is a known path ("/sweep", "/status", "/params",
     *  "/shutdown") or anything else for the catch-all bucket. */
    const RequestTimeSeries &series(const std::string &endpoint) const;

    /** Render the /status JSON document at @p minute. */
    std::string statusJson(std::uint64_t minute) const;

  private:
    HttpResponse dispatch(const HttpRequest &request,
                          std::uint64_t minute);
    HttpResponse handleSweep(const std::string &body);

    RequestTimeSeries &seriesFor(const std::string &path);

    SimConfig base;
    unsigned jobs;
    std::string cacheDir;
    bool shutdown = false;

    RequestTimeSeries sweepSeries;
    RequestTimeSeries statusSeries;
    RequestTimeSeries paramsSeries;
    RequestTimeSeries shutdownSeries;
    RequestTimeSeries otherSeries;  ///< unknown paths (all 404s)
};

} // namespace vpr::service

#endif // VPR_SERVICE_SWEEP_SERVICE_HH
