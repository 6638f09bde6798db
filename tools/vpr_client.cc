/**
 * @file
 * vpr_client — thin command-line client for the vpr_simd sweep daemon.
 *
 * Usage:
 *   vpr_client [--host=<addr>] [--port=<n>] [--out=<path>] <command>
 *
 * Commands:
 *   sweep     POST /sweep. The JSON body is built from the same flags
 *             vpr_sim takes (--sweep=<k=v1,v2,...> repeatable,
 *             --set=<k=v> repeatable, --target=<bench|all>,
 *             --figure=<name>, --format=csv|json) — or passed verbatim
 *             with --body=<file> ("-" = stdin).
 *   status    GET /status (the daemon's JSON health/metrics page).
 *   params    GET /params (the parameter reference + benchmark list).
 *   shutdown  POST /shutdown.
 *
 * The response body goes to --out or stdout. Exit status: 0 on HTTP
 * 200, 2 on a non-200 response (body printed to stderr), 1 with one
 * "fatal:" line on a transport error or bad usage (--port takes
 * 0-65535, like the daemon's).
 */

#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "service/http.hh"

using namespace vpr;

namespace
{

constexpr const char *kUsage =
    "usage: vpr_client [--host=<addr>] [--port=<n>] [--out=<path>] "
    "<sweep | status | params | shutdown>; sweep takes "
    "[--target=<bench|all>] [--sweep=<k=v1,v2,...>]... [--set=<k=v>]... "
    "[--figure=<name>] [--format=csv|json] [--body=<file.json|->]";

bool
matchArg(const char *arg, const char *key, const char **value)
{
    std::size_t n = std::strlen(key);
    if (std::strncmp(arg, key, n) == 0 && arg[n] == '=') {
        *value = arg + n + 1;
        return true;
    }
    return false;
}

void
appendField(std::string &json, const char *key,
            const std::vector<std::string> &values)
{
    if (values.empty())
        return;
    if (json.size() > 1)
        json += ", ";
    json += std::string("\"") + key + "\": [";
    for (std::size_t i = 0; i < values.size(); ++i)
        json += (i ? ", \"" : "\"") + jsonEscape(values[i]) +
                "\"";
    json += "]";
}

int
clientMain(int argc, char **argv)
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 8390;
    std::string outPath;
    std::string command;
    std::string bodyFile;
    std::vector<std::string> targets, sweeps, sets;
    std::vector<std::string> figure, format;

    for (int i = 1; i < argc; ++i) {
        const char *v = nullptr;
        if (matchArg(argv[i], "--host", &v)) {
            host = v;
        } else if (matchArg(argv[i], "--port", &v)) {
            port = service::parsePort(v);
        } else if (matchArg(argv[i], "--out", &v)) {
            outPath = v;
        } else if (matchArg(argv[i], "--target", &v)) {
            targets.push_back(v);
        } else if (matchArg(argv[i], "--sweep", &v)) {
            sweeps.push_back(v);
        } else if (matchArg(argv[i], "--set", &v)) {
            sets.push_back(v);
        } else if (matchArg(argv[i], "--figure", &v)) {
            figure.assign(1, v);
        } else if (matchArg(argv[i], "--format", &v)) {
            format.assign(1, v);
        } else if (matchArg(argv[i], "--body", &v)) {
            bodyFile = v;
        } else if (argv[i][0] == '-' || !command.empty()) {
            VPR_FATAL("unrecognized argument '", argv[i], "'; ", kUsage);
        } else {
            command = argv[i];
        }
    }

    std::string method, path, body;
    if (command == "sweep") {
        method = "POST";
        path = "/sweep";
        if (!bodyFile.empty()) {
            if (bodyFile == "-") {
                std::ostringstream ss;
                ss << std::cin.rdbuf();
                body = ss.str();
            } else {
                std::ifstream in(bodyFile, std::ios::binary);
                if (!in)
                    VPR_FATAL("cannot read --body file '", bodyFile, "'");
                std::ostringstream ss;
                ss << in.rdbuf();
                body = ss.str();
            }
        } else {
            body = "{";
            appendField(body, "target", targets);
            appendField(body, "sweep", sweeps);
            appendField(body, "set", sets);
            appendField(body, "figure", figure);
            appendField(body, "format", format);
            body += "}";
        }
    } else if (command == "status") {
        method = "GET";
        path = "/status";
    } else if (command == "params") {
        method = "GET";
        path = "/params";
    } else if (command == "shutdown") {
        method = "POST";
        path = "/shutdown";
    } else {
        VPR_FATAL("unknown command '", command, "'; ", kUsage);
    }

    service::HttpResponse response;
    std::string error;
    if (!service::httpRequest(host, port, method, path, body, response,
                              error))
        VPR_FATAL(error);
    if (response.status != 200) {
        std::cerr << "vpr_client: HTTP " << response.status << " "
                  << service::httpReason(response.status) << "\n"
                  << response.body;
        return 2;
    }

    if (outPath.empty()) {
        std::cout << response.body;
    } else {
        std::ofstream out(outPath, std::ios::binary);
        if (!out)
            VPR_FATAL("cannot write --out file '", outPath, "'");
        out << response.body;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain([&] { return clientMain(argc, argv); });
}
