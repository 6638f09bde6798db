#include "daemon.hh"

#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "spans.hh"

namespace perfbench
{

namespace
{

constexpr const char *kHost = "127.0.0.1";
constexpr int kListenTimeoutMs = 30000;
constexpr int kExitGraceMs = 10000;

std::uint64_t
numberAfter(const std::string &json, const std::string &key,
            std::size_t from = 0)
{
    const std::string needle = "\"" + key + "\": ";
    const std::size_t at = json.find(needle, from);
    if (at == std::string::npos)
        throw std::runtime_error("status: no field " + key);
    return std::strtoull(json.c_str() + at + needle.size(), nullptr, 10);
}

} // namespace

Daemon::Daemon(const std::string &simdPath,
               const std::vector<std::string> &args)
{
    std::vector<std::string> argvText = {simdPath, std::string("--host=") +
                                                       kHost,
                                         "--port=0"};
    argvText.insert(argvText.end(), args.begin(), args.end());
    std::vector<char *> argv;
    for (std::string &a : argvText)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    int fds[2];
    if (pipe(fds) != 0)
        throw std::runtime_error("pipe failed");
    // posix_spawn rather than fork: the spawn cost, and with it setup_s,
    // does not depend on how much memory this process holds.
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    const std::int64_t t0 = nowNs();
    const int spawned = posix_spawn(&pid, argv[0], &actions, nullptr,
                                    argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    if (spawned != 0) {
        close(fds[0]);
        pid = -1;
        throw std::runtime_error("cannot spawn " + simdPath);
    }
    outFd = fds[0];

    // The daemon prints "vpr_simd listening on <host>:<port> (...)" once
    // it accepts connections.
    std::string text;
    for (;;) {
        const std::size_t at = text.find("listening on ");
        const std::size_t colon =
            at == std::string::npos ? at : text.find(':', at);
        if (colon != std::string::npos &&
            text.find('\n', colon) != std::string::npos) {
            port = static_cast<std::uint16_t>(
                std::strtoul(text.c_str() + colon + 1, nullptr, 10));
            break;
        }
        pollfd p{outFd, POLLIN, 0};
        char buf[512];
        const int ready = poll(&p, 1, kListenTimeoutMs);
        const ssize_t n = ready > 0 ? read(outFd, buf, sizeof(buf)) : -1;
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            stop();
            throw std::runtime_error("vpr_simd did not start: " + text);
        }
        text.append(buf, static_cast<std::size_t>(n));
    }
    setup = static_cast<double>(nowNs() - t0) / 1e9;
    if (port == 0) {
        stop();
        throw std::runtime_error("vpr_simd reported no port: " + text);
    }
}

Daemon::~Daemon() { stop(); }

double
Daemon::peakRssMb() const
{
    std::ifstream status("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(status, line))
        if (line.compare(0, 6, "VmHWM:") == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    throw std::runtime_error("no VmHWM for vpr_simd");
}

vpr::service::HttpResponse
Daemon::request(const std::string &method, const std::string &path,
                const std::string &body) const
{
    vpr::service::HttpResponse response;
    std::string error;
    if (!vpr::service::httpRequest(kHost, port, method, path, body, response,
                                   error))
        throw std::runtime_error(method + " " + path + ": " + error);
    return response;
}

void
Daemon::stop()
{
    if (pid > 0) {
        if (port != 0) {
            vpr::service::HttpResponse ignored;
            std::string error;
            vpr::service::httpRequest(kHost, port, "POST", "/shutdown", "",
                                      ignored, error);
        }
        // Poll in short steps. After an idle gap of 10 ms or more a
        // virtual machine's host may park this CPU, and the next daemon
        // spawn (a set-up sample) then takes up to three times as long,
        // by an amount that varies with the host's load.
        const std::int64_t deadline =
            nowNs() + std::int64_t{kExitGraceMs} * 1000000;
        int status = 0;
        bool reaped = false;
        while (!reaped && nowNs() < deadline) {
            reaped = waitpid(pid, &status, WNOHANG) == pid;
            if (!reaped)
                std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        if (!reaped) {
            kill(pid, SIGKILL);
            waitpid(pid, &status, 0);
        }
        pid = -1;
    }
    if (outFd >= 0) {
        close(outFd);
        outFd = -1;
    }
}

DaemonStatus
parseStatus(const std::string &json)
{
    DaemonStatus s;
    s.cacheHits = numberAfter(json, "hits");
    s.cacheMisses = numberAfter(json, "misses");
    s.cacheStores = numberAfter(json, "stores");
    const std::size_t sweep = json.find("\"/sweep\": ");
    if (sweep == std::string::npos)
        throw std::runtime_error("status: no /sweep series");
    // The first "requests"/"avg_latency_usec" after the key are the
    // series' whole-lifetime totals.
    s.sweepRequests = numberAfter(json, "requests", sweep);
    s.sweepMeanMs =
        static_cast<double>(numberAfter(json, "avg_latency_usec", sweep)) /
        1e3;
    return s;
}

} // namespace perfbench
