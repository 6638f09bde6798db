/**
 * @file
 * Minimal blocking HTTP/1.1 over a small portable POSIX socket layer —
 * just enough protocol for the sweep daemon (vpr_simd) and its client:
 * one request per connection (the server always answers
 * "Connection: close"), request bodies sized by Content-Length, no
 * chunked encoding, no TLS. Hand-rolled so the service adds no
 * dependencies; the interesting logic lives in sweep_service.hh, which
 * is plain request-in/response-out and never touches a socket.
 */

#ifndef VPR_SERVICE_HTTP_HH
#define VPR_SERVICE_HTTP_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>

namespace vpr::service
{

/** One parsed HTTP request (method, path, optional body). */
struct HttpRequest
{
    std::string method;  ///< "GET", "POST", ...
    std::string path;    ///< "/sweep" (query strings are kept verbatim)
    std::string body;
};

/** One HTTP response the handler fills in. */
struct HttpResponse
{
    int status = 200;
    std::string contentType = "text/plain";
    std::string body;
};

/** Standard reason phrase for the status codes the service emits. */
const char *httpReason(int status);

/** Strictly parse a --port value, the daemon's and the client's alike:
 *  0-65535 (whole string; 0 = an ephemeral port). Anything else is an
 *  Error naming --port. */
std::uint16_t parsePort(const std::string &text);

/**
 * Blocking single-threaded HTTP server: bind, then serve() accepts one
 * connection at a time and runs the handler inline. Long sweeps
 * therefore serialize requests — acceptable for a v1 compute service
 * whose unit of work is seconds, and what keeps every shared structure
 * (time series, result cache counters) race-free by construction.
 */
class HttpServer
{
  public:
    using Handler = std::function<HttpResponse(const HttpRequest &)>;

    /**
     * Each connection must deliver its whole request — request line,
     * headers and body — within this long of being accepted, or it is
     * answered 408 and closed. One absolute deadline, not a per-read
     * timeout: a client trickling a byte at a time cannot hold the
     * serial accept loop beyond it.
     */
    static constexpr std::chrono::seconds kRequestDeadline{3};

    HttpServer() = default;
    ~HttpServer();

    HttpServer(const HttpServer &) = delete;
    HttpServer &operator=(const HttpServer &) = delete;

    /** Bind and listen on @p host:@p port (port 0 = ephemeral; read the
     *  chosen port back with port()). False + @p error on failure. */
    bool bindAndListen(const std::string &host, std::uint16_t port,
                       std::string &error);

    /** The bound port (valid after bindAndListen succeeded). */
    std::uint16_t port() const { return boundPort; }

    /**
     * Accept-and-handle loop; returns after a handler calls
     * requestStop() (checked between connections). A malformed request
     * gets a 400 and one still incomplete at kRequestDeadline a 408,
     * neither reaching the handler; socket-level errors on one
     * connection never take the server down.
     */
    void serve(const Handler &handler);

    /** Make serve() return after the in-flight connection completes. */
    void requestStop() { stopping = true; }

  private:
    int listenFd = -1;
    std::uint16_t boundPort = 0;
    bool stopping = false;
};

/**
 * Blocking HTTP client for vpr_client and the tests: one request, one
 * response. True on any complete HTTP exchange (@p response carries
 * the status, even 4xx/5xx); false + @p error on connect/protocol
 * failure.
 */
bool httpRequest(const std::string &host, std::uint16_t port,
                 const std::string &method, const std::string &path,
                 const std::string &body, HttpResponse &response,
                 std::string &error);

} // namespace vpr::service

#endif // VPR_SERVICE_HTTP_HH
