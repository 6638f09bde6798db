/**
 * @file
 * A vpr_simd child process for the resweep workload: spawned on an
 * ephemeral loopback port, driven over HTTP with the library's own
 * client, and always shut down and reaped before the benchmark exits.
 */

#ifndef PERFBENCH_DAEMON_HH
#define PERFBENCH_DAEMON_HH

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "service/http.hh"

namespace perfbench
{

class Daemon
{
  public:
    /** Spawn @p simdPath with @p args plus --host/--port and wait until
     *  it prints its listening line. Throws on failure. */
    Daemon(const std::string &simdPath, const std::vector<std::string> &args);
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Host time from spawn until listening, seconds. */
    double setupSeconds() const { return setup; }

    /** Peak resident set of the daemon so far (VmHWM), MB. */
    double peakRssMb() const;

    /** One HTTP exchange; throws on a transport failure. */
    vpr::service::HttpResponse request(const std::string &method,
                                       const std::string &path,
                                       const std::string &body = {}) const;

    /** POST /shutdown and reap the process (killed if it lingers). */
    void stop();

  private:
    pid_t pid = -1;
    int outFd = -1;
    std::uint16_t port = 0;
    double setup = 0.0;
};

/** The GET /status fields the benchmark reads. */
struct DaemonStatus
{
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t cacheStores = 0;
    std::uint64_t sweepRequests = 0;
    double sweepMeanMs = 0.0;  ///< the daemon's own mean /sweep latency
};

/** Parse a /status document; throws when a field is missing. */
DaemonStatus parseStatus(const std::string &json);

} // namespace perfbench

#endif // PERFBENCH_DAEMON_HH
