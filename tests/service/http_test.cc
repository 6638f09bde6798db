/**
 * @file
 * The portable HTTP layer, end to end over a real loopback socket: an
 * ephemeral-port server in a background thread, the blocking client
 * against it. Covers request/response round trips (body, status,
 * content type), protocol-error handling (malformed request line or
 * an oversized request body = 400 without reaching the handler), the
 * uncapped response body, the per-connection read deadline
 * (a stalled client = 408, and it cannot starve the next one), and
 * clean shutdown.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "service/http.hh"

#include "../support/expect_error.hh"

namespace vpr::service
{
namespace
{

/** Connect to the loopback server and send @p wire verbatim; -1 if
 *  the connection fails. */
int
rawSend(std::uint16_t port, const std::string &wire)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    (void)!::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL);
    return fd;
}

/** Everything the server sends on @p fd until it closes; closes @p fd. */
std::string
readToEof(int fd)
{
    std::string back;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
        back.append(buf, static_cast<std::size_t>(n));
    ::close(fd);
    return back;
}

/** Raw exchange: send @p wire verbatim, return everything until EOF
 *  (for protocol-level cases the structured client cannot produce). */
std::string
rawExchange(std::uint16_t port, const std::string &wire)
{
    const int fd = rawSend(port, wire);
    return fd < 0 ? "" : readToEof(fd);
}

TEST(Http, RoundTripAndShutdown)
{
    HttpServer server;
    std::string error;
    ASSERT_TRUE(server.bindAndListen("127.0.0.1", 0, error)) << error;
    ASSERT_NE(server.port(), 0);

    std::thread serverThread([&] {
        server.serve([&](const HttpRequest &request) {
            HttpResponse response;
            if (request.path == "/quit") {
                server.requestStop();
                response.body = "bye";
                return response;
            }
            response.status = request.path == "/echo" ? 200 : 404;
            response.contentType = "text/x-echo";
            response.body = request.method + " " + request.path + " [" +
                            request.body + "]";
            return response;
        });
    });

    HttpResponse response;
    ASSERT_TRUE(httpRequest("127.0.0.1", server.port(), "POST", "/echo",
                            "hello body", response, error))
        << error;
    EXPECT_EQ(response.status, 200);
    EXPECT_EQ(response.body, "POST /echo [hello body]");

    // Non-200 statuses still complete the exchange (caller sees them).
    ASSERT_TRUE(httpRequest("127.0.0.1", server.port(), "GET", "/miss",
                            "", response, error))
        << error;
    EXPECT_EQ(response.status, 404);

    // An empty body round-trips (Content-Length: 0).
    ASSERT_TRUE(httpRequest("127.0.0.1", server.port(), "GET", "/echo",
                            "", response, error))
        << error;
    EXPECT_EQ(response.body, "GET /echo []");

    // A malformed request line is answered 400 by the server itself.
    const std::string raw =
        rawExchange(server.port(), "NONSENSE\r\n\r\n");
    EXPECT_EQ(raw.compare(0, 17, "HTTP/1.1 400 Bad "), 0) << raw;

    // Binary-safe bodies (NUL bytes survive Content-Length framing).
    const std::string binary("a\0b\r\n\r\nc", 8);
    ASSERT_TRUE(httpRequest("127.0.0.1", server.port(), "POST", "/echo",
                            binary, response, error))
        << error;
    EXPECT_EQ(response.body, "POST /echo [" + binary + "]");

    ASSERT_TRUE(httpRequest("127.0.0.1", server.port(), "POST", "/quit",
                            "", response, error))
        << error;
    EXPECT_EQ(response.body, "bye");
    serverThread.join();
}

TEST(Http, StalledClientCannotStallTheNextOne)
{
    HttpServer server;
    std::string error;
    ASSERT_TRUE(server.bindAndListen("127.0.0.1", 0, error)) << error;
    std::thread serverThread([&] {
        server.serve([&](const HttpRequest &request) {
            if (request.path == "/quit")
                server.requestStop();
            HttpResponse response;
            response.body = "ok " + request.path;
            return response;
        });
    });

    // Half a request line, then silence with the connection held open.
    const auto start = std::chrono::steady_clock::now();
    const int stalled = rawSend(server.port(), "GET /sta");
    ASSERT_GE(stalled, 0);
    // The serial loop now waits on the stalled client; the next client
    // is answered once its deadline expires.
    HttpResponse response;
    ASSERT_TRUE(httpRequest("127.0.0.1", server.port(), "GET", "/status",
                            "", response, error))
        << error;
    const auto waited = std::chrono::steady_clock::now() - start;
    EXPECT_EQ(response.status, 200);
    EXPECT_EQ(response.body, "ok /status");
    EXPECT_LE(waited,
              HttpServer::kRequestDeadline + std::chrono::seconds(1));

    // The stalled client itself was told why it was dropped.
    const std::string dropped = readToEof(stalled);
    EXPECT_EQ(dropped.compare(0, 21, "HTTP/1.1 408 Request "), 0)
        << dropped;

    ASSERT_TRUE(httpRequest("127.0.0.1", server.port(), "POST", "/quit",
                            "", response, error))
        << error;
    serverThread.join();
}

TEST(Http, BodyCapAppliesToRequestsOnly)
{
    // The 4 MiB cap guards the server against huge request bodies; a
    // response is as large as the sweep it answers (a 2,520-cell grid
    // is ~6 MB of CSV) and must reach the client whole.
    constexpr std::size_t kCap = 4 * 1024 * 1024;
    std::string big(kCap + 12345, '\0');
    for (std::size_t i = 0; i < big.size(); ++i)
        big[i] = static_cast<char>('a' + i % 23);

    HttpServer server;
    std::string error;
    ASSERT_TRUE(server.bindAndListen("127.0.0.1", 0, error)) << error;
    std::atomic<bool> handlerRan{false};
    std::thread serverThread([&] {
        server.serve([&](const HttpRequest &request) {
            HttpResponse response;
            if (request.path == "/quit")
                server.requestStop();
            else if (request.path == "/big")
                response.body = big;
            else
                handlerRan = true;
            return response;
        });
    });

    HttpResponse response;
    ASSERT_TRUE(httpRequest("127.0.0.1", server.port(), "GET", "/big", "",
                            response, error))
        << error;
    EXPECT_EQ(response.status, 200);
    EXPECT_TRUE(response.body == big) << response.body.size() << " bytes";

    // A request announcing a body over the cap is refused from its
    // headers, before any of the body is read.
    const std::string refused = rawExchange(
        server.port(), "POST /sweep HTTP/1.1\r\nContent-Length: " +
                           std::to_string(kCap + 1) + "\r\n\r\n");
    EXPECT_EQ(refused.compare(0, 17, "HTTP/1.1 400 Bad "), 0) << refused;
    EXPECT_NE(refused.find("request body too large"), std::string::npos)
        << refused;
    EXPECT_FALSE(handlerRan);

    ASSERT_TRUE(httpRequest("127.0.0.1", server.port(), "POST", "/quit",
                            "", response, error))
        << error;
    serverThread.join();
}

TEST(Http, ConnectFailureIsCleanError)
{
    // Nothing listens on the discard port on this host.
    HttpResponse response;
    std::string error;
    EXPECT_FALSE(
        httpRequest("127.0.0.1", 9, "GET", "/", "", response, error));
    EXPECT_FALSE(error.empty());
}

TEST(HttpDeath, PortIsStrict)
{
    // The daemon and the client share this parser: a port that does
    // not fit 16 bits used to wrap (99999 listened on 34463) and text
    // became port 0.
    EXPECT_EQ(parsePort("0"), 0u);  // ephemeral
    EXPECT_EQ(parsePort("8390"), 8390u);
    EXPECT_EQ(parsePort("65535"), 65535u);
    for (const char *bad : {"99999", "65536", "abc", "", "-1", "80x"})
        EXPECT_VPR_ERROR(parsePort(bad), "bad --port") << bad;
}

TEST(Http, ReasonPhrases)
{
    EXPECT_STREQ(httpReason(200), "OK");
    EXPECT_STREQ(httpReason(400), "Bad Request");
    EXPECT_STREQ(httpReason(404), "Not Found");
    EXPECT_STREQ(httpReason(405), "Method Not Allowed");
    EXPECT_STREQ(httpReason(408), "Request Timeout");
    EXPECT_STREQ(httpReason(500), "Internal Server Error");
    EXPECT_STREQ(httpReason(999), "Unknown");
}

} // namespace
} // namespace vpr::service
