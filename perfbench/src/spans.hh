/**
 * @file
 * In-memory span recording for the traced replay: one span per public
 * call (name, start, end, parent), kept until the benchmark exits, then
 * reduced to per-layer self times and written once as Chrome trace-event
 * JSON (Perfetto and chrome://tracing open it).
 *
 * A span name is "<layer>.<call>" (core.ff, result_cache.load, ...); a
 * name without a dot is the benchmark's own glue (replay, figure,
 * request, cell) and belongs to the "bench" layer.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** Monotonic host time in nanoseconds. */
std::int64_t nowNs();

/** One recorded call. */
struct Span
{
    const char *name = "";  ///< static text
    std::int64_t start = 0; ///< ns
    std::int64_t end = 0;   ///< ns
    std::int32_t parent = -1; ///< index of the enclosing span, -1 = root
};

/** Self time of every span: its duration minus its children's
 *  durations. SpanRecorder's spans nest strictly, so children never
 *  overlap each other or stick out of their parent. */
std::vector<std::int64_t> selfTimes(const std::vector<Span> &spans);

/** The layer a span name belongs to: the text before the first '.',
 *  or "bench" for the benchmark's own glue spans. */
std::string layerOf(const std::string &name);

/** Self time summed per span name. */
std::map<std::string, std::int64_t>
selfTimeByName(const std::vector<Span> &spans);

/** Self time summed per layer. */
std::map<std::string, std::int64_t>
selfTimeByLayer(const std::vector<Span> &spans);

/** Write @p spans as Chrome trace-event JSON (complete "X" events,
 *  microsecond timestamps relative to the first span). */
void writeChromeTrace(std::ostream &os, const std::vector<Span> &spans);

/** Records strictly nested spans of one thread. */
class SpanRecorder
{
  public:
    /** Open a span as a child of the innermost open one. */
    std::int32_t begin(const char *name);

    /** Close span @p id (the innermost open one); returns its duration
     *  in ns. */
    std::int64_t end(std::int32_t id);

    /** Run @p body inside a span; returns the span's duration in ns.
     *  If @p body throws, the span is closed before the exception
     *  leaves. */
    template <class Body>
    std::int64_t
    timed(const char *name, Body &&body)
    {
        const std::int32_t id = begin(name);
        try {
            body();
        } catch (...) {
            end(id);
            throw;
        }
        return end(id);
    }

    const std::vector<Span> &spans() const { return all; }

  private:
    std::vector<Span> all;
    std::int32_t open = -1;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
