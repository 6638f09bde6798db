#include "service/http.hh"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hh"
#include "sim/params.hh"

namespace vpr::service
{

namespace
{

/** Largest accepted header block / request body. The daemon's only
 *  POST body is a small JSON sweep spec; anything bigger is abuse. A
 *  response body has no cap: a sweep's CSV grows with its grid. */
constexpr std::size_t kMaxHeaderBytes = 64 * 1024;
constexpr std::size_t kMaxBodyBytes = 4 * 1024 * 1024;

using Clock = std::chrono::steady_clock;

/** The client waits as long as the server computes (a sweep may run
 *  for minutes); only the server reads against a deadline. */
constexpr Clock::time_point kNoDeadline = Clock::time_point::max();

void
closeFd(int fd)
{
    if (fd >= 0)
        ::close(fd);
}

/** send() everything, riding out EINTR and partial writes; MSG_NOSIGNAL
 *  turns a dead peer into an error return instead of SIGPIPE. */
bool
sendAll(int fd, const std::string &data)
{
    std::size_t sent = 0;
    while (sent < data.size()) {
        const ssize_t n = ::send(fd, data.data() + sent,
                                 data.size() - sent, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

/** Append the next chunk the peer sends; false once it has closed,
 *  failed, or stayed silent until @p deadline. */
bool
recvSome(int fd, std::string &buffer, Clock::time_point deadline)
{
    char chunk[16 * 1024];
    for (;;) {
        if (deadline != kNoDeadline) {
            const auto left = std::chrono::ceil<std::chrono::milliseconds>(
                                  deadline - Clock::now())
                                  .count();
            pollfd pfd{fd, POLLIN, 0};
            const int ready =
                ::poll(&pfd, 1, left > 0 ? static_cast<int>(left) : 0);
            if (ready < 0 && errno == EINTR)
                continue;
            if (ready <= 0)
                return false;
        }
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;  // peer closed or failed
        buffer.append(chunk, static_cast<std::size_t>(n));
        return true;
    }
}

bool
equalsIgnoreCase(const std::string &a, const char *b)
{
    std::size_t i = 0;
    for (; i < a.size() && b[i]; ++i) {
        const char ca = a[i] >= 'A' && a[i] <= 'Z'
                            ? static_cast<char>(a[i] - 'A' + 'a')
                            : a[i];
        const char cb = b[i] >= 'A' && b[i] <= 'Z'
                            ? static_cast<char>(b[i] - 'A' + 'a')
                            : b[i];
        if (ca != cb)
            return false;
    }
    return i == a.size() && !b[i];
}

std::string
trimSpace(const std::string &s)
{
    std::size_t begin = s.find_first_not_of(" \t");
    if (begin == std::string::npos)
        return std::string();
    std::size_t end = s.find_last_not_of(" \t\r");
    return s.substr(begin, end - begin + 1);
}

/** Parse the Content-Length of a raw header block (the bytes between
 *  the request/status line and the blank line); 0 when absent. False
 *  only on a malformed value. */
bool
parseContentLength(const std::string &headers, std::size_t &length)
{
    length = 0;
    std::size_t lineStart = 0;
    while (lineStart < headers.size()) {
        std::size_t lineEnd = headers.find("\r\n", lineStart);
        if (lineEnd == std::string::npos)
            lineEnd = headers.size();
        const std::string line =
            headers.substr(lineStart, lineEnd - lineStart);
        const std::size_t colon = line.find(':');
        if (colon != std::string::npos &&
            equalsIgnoreCase(line.substr(0, colon), "content-length")) {
            const std::string value = trimSpace(line.substr(colon + 1));
            if (value.empty() ||
                value.find_first_not_of("0123456789") !=
                    std::string::npos)
                return false;
            length = static_cast<std::size_t>(
                std::strtoull(value.c_str(), nullptr, 10));
        }
        lineStart = lineEnd + 2;
    }
    return true;
}

/**
 * Read one full message from @p fd: header block up to the blank line,
 * then Content-Length body bytes, all of it by @p deadline. A request
 * (@p isRequest, read by the server) may not carry a body over
 * kMaxBodyBytes; a response (read by the client) has no cap, and one
 * without a Content-Length runs until the peer closes. @p firstLine
 * and @p headerBlock/@p body come back separated.
 */
bool
readMessage(int fd, std::string &firstLine, std::string &headerBlock,
            std::string &body, bool isRequest,
            Clock::time_point deadline, std::string &error)
{
    std::string buffer;
    std::size_t headerEnd;
    for (;;) {
        headerEnd = buffer.find("\r\n\r\n");
        if (headerEnd != std::string::npos)
            break;
        if (buffer.size() > kMaxHeaderBytes) {
            error = "header block too large";
            return false;
        }
        if (!recvSome(fd, buffer, deadline)) {
            error = "connection closed mid-header";
            return false;
        }
    }

    const std::size_t lineEnd = buffer.find("\r\n");
    firstLine = buffer.substr(0, lineEnd);
    headerBlock =
        buffer.substr(lineEnd + 2, headerEnd - (lineEnd + 2));
    body = buffer.substr(headerEnd + 4);

    std::size_t contentLength = 0;
    if (!parseContentLength(headerBlock, contentLength)) {
        error = "malformed Content-Length";
        return false;
    }
    if (isRequest && contentLength > kMaxBodyBytes) {
        error = "request body too large";
        return false;
    }
    if (!isRequest && contentLength == 0) {
        while (recvSome(fd, body, deadline)) {
        }
        return true;
    }
    while (body.size() < contentLength) {
        if (!recvSome(fd, body, deadline)) {
            error = "connection closed mid-body";
            return false;
        }
    }
    body.resize(contentLength);
    return true;
}

std::string
renderResponse(const HttpResponse &response)
{
    std::string out = "HTTP/1.1 " + std::to_string(response.status) +
                      " " + httpReason(response.status) + "\r\n";
    out += "Content-Type: " + response.contentType + "\r\n";
    out += "Content-Length: " + std::to_string(response.body.size()) +
           "\r\n";
    out += "Connection: close\r\n\r\n";
    out += response.body;
    return out;
}

} // namespace

std::uint16_t
parsePort(const std::string &text)
{
    std::uint64_t v = 0;
    if (!parseParamU64(text, v) || v > 65535)
        VPR_FATAL("bad --port '", text, "' (want 0-65535; 0 = ephemeral)");
    return static_cast<std::uint16_t>(v);
}

const char *
httpReason(int status)
{
    switch (status) {
      case 200: return "OK";
      case 400: return "Bad Request";
      case 404: return "Not Found";
      case 405: return "Method Not Allowed";
      case 408: return "Request Timeout";
      case 500: return "Internal Server Error";
      default: return "Unknown";
    }
}

HttpServer::~HttpServer()
{
    closeFd(listenFd);
}

bool
HttpServer::bindAndListen(const std::string &host, std::uint16_t port,
                          std::string &error)
{
    listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd < 0) {
        error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    const int one = 1;
    ::setsockopt(listenFd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        error = "bad listen address '" + host + "'";
        return false;
    }
    if (::bind(listenFd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        error = "bind " + host + ":" + std::to_string(port) + ": " +
                std::strerror(errno);
        return false;
    }
    if (::listen(listenFd, 16) != 0) {
        error = std::string("listen: ") + std::strerror(errno);
        return false;
    }

    socklen_t len = sizeof(addr);
    if (::getsockname(listenFd, reinterpret_cast<sockaddr *>(&addr),
                      &len) != 0) {
        error = std::string("getsockname: ") + std::strerror(errno);
        return false;
    }
    boundPort = ntohs(addr.sin_port);
    return true;
}

void
HttpServer::serve(const Handler &handler)
{
    VPR_ASSERT(listenFd >= 0, "serve() before bindAndListen()");
    while (!stopping) {
        const int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            VPR_WARN("accept: ", std::strerror(errno));
            return;
        }
        const Clock::time_point deadline = Clock::now() + kRequestDeadline;
        std::string requestLine, headerBlock, body, error;
        HttpResponse response;
        if (!readMessage(fd, requestLine, headerBlock, body,
                         /*isRequest=*/true, deadline, error)) {
            const bool late = Clock::now() >= deadline;
            response.status = late ? 408 : 400;
            response.body = late ? "request not complete within the " +
                                       std::to_string(
                                           kRequestDeadline.count()) +
                                       " s deadline\n"
                                 : "bad request: " + error + "\n";
        } else {
            HttpRequest request;
            const std::size_t sp1 = requestLine.find(' ');
            const std::size_t sp2 =
                sp1 == std::string::npos
                    ? sp1
                    : requestLine.find(' ', sp1 + 1);
            if (sp2 == std::string::npos ||
                requestLine.compare(sp2 + 1, 5, "HTTP/") != 0) {
                response.status = 400;
                response.body = "bad request: malformed request line\n";
            } else {
                request.method = requestLine.substr(0, sp1);
                request.path =
                    requestLine.substr(sp1 + 1, sp2 - sp1 - 1);
                request.body = std::move(body);
                response = handler(request);
            }
        }
        if (!sendAll(fd, renderResponse(response)))
            VPR_WARN("client hung up before the response was sent");
        closeFd(fd);
    }
}

bool
httpRequest(const std::string &host, std::uint16_t port,
            const std::string &method, const std::string &path,
            const std::string &body, HttpResponse &response,
            std::string &error)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        error = std::string("socket: ") + std::strerror(errno);
        return false;
    }

    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        error = "bad host '" + host + "' (want a dotted IPv4 address)";
        closeFd(fd);
        return false;
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        error = "connect " + host + ":" + std::to_string(port) + ": " +
                std::strerror(errno);
        closeFd(fd);
        return false;
    }

    std::string request = method + " " + path + " HTTP/1.1\r\n";
    request += "Host: " + host + "\r\n";
    request += "Content-Length: " + std::to_string(body.size()) +
               "\r\n";
    request += "Connection: close\r\n\r\n";
    request += body;
    if (!sendAll(fd, request)) {
        error = std::string("send: ") + std::strerror(errno);
        closeFd(fd);
        return false;
    }

    std::string statusLine, headerBlock;
    if (!readMessage(fd, statusLine, headerBlock, response.body,
                     /*isRequest=*/false, kNoDeadline, error)) {
        closeFd(fd);
        return false;
    }
    closeFd(fd);

    // "HTTP/1.1 200 OK"
    const std::size_t sp = statusLine.find(' ');
    if (sp == std::string::npos ||
        statusLine.compare(0, 5, "HTTP/") != 0) {
        error = "malformed status line '" + statusLine + "'";
        return false;
    }
    response.status =
        static_cast<int>(std::strtol(statusLine.c_str() + sp + 1,
                                     nullptr, 10));
    if (response.status < 100 || response.status > 599) {
        error = "malformed status line '" + statusLine + "'";
        return false;
    }
    return true;
}

} // namespace vpr::service
