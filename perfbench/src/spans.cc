#include "spans.hh"

#include <chrono>
#include <cstdio>
#include <ostream>

namespace perfbench
{

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::vector<std::int64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::int64_t> self(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::int64_t duration = spans[i].end - spans[i].start;
        self[i] += duration;
        if (spans[i].parent >= 0)
            self[static_cast<std::size_t>(spans[i].parent)] -= duration;
    }
    return self;
}

std::string
layerOf(const std::string &name)
{
    const std::size_t dot = name.find('.');
    return dot == std::string::npos ? "bench" : name.substr(0, dot);
}

std::map<std::string, std::int64_t>
selfTimeByName(const std::vector<Span> &spans)
{
    const std::vector<std::int64_t> self = selfTimes(spans);
    std::map<std::string, std::int64_t> out;
    for (std::size_t i = 0; i < spans.size(); ++i)
        out[spans[i].name] += self[i];
    return out;
}

std::map<std::string, std::int64_t>
selfTimeByLayer(const std::vector<Span> &spans)
{
    std::map<std::string, std::int64_t> out;
    for (const auto &[name, ns] : selfTimeByName(spans))
        out[layerOf(name)] += ns;
    return out;
}

void
writeChromeTrace(std::ostream &os, const std::vector<Span> &spans)
{
    const std::int64_t t0 = spans.empty() ? 0 : spans.front().start;
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    char buf[96];
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        os << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
           << "\", \"cat\": \"" << layerOf(s.name)
           << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1";
        std::snprintf(buf, sizeof(buf), ", \"ts\": %.3f, \"dur\": %.3f",
                      static_cast<double>(s.start - t0) / 1e3,
                      static_cast<double>(s.end - s.start) / 1e3);
        os << buf << ", \"args\": {\"id\": " << i
           << ", \"parent\": " << s.parent << "}}";
    }
    os << "\n]}\n";
}

std::int32_t
SpanRecorder::begin(const char *name)
{
    Span s;
    s.name = name;
    s.parent = open;
    s.start = nowNs();
    all.push_back(s);
    open = static_cast<std::int32_t>(all.size() - 1);
    return open;
}

std::int64_t
SpanRecorder::end(std::int32_t id)
{
    Span &s = all[static_cast<std::size_t>(id)];
    s.end = nowNs();
    open = s.parent;
    return s.end - s.start;
}

} // namespace perfbench
