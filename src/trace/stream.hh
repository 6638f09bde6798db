/**
 * @file
 * Abstract trace stream plus the simple vector-backed implementation.
 */

#ifndef VPR_TRACE_STREAM_HH
#define VPR_TRACE_STREAM_HH

#include <optional>
#include <vector>

#include "trace/record.hh"

namespace vpr
{

/**
 * A source of dynamic instructions. Streams must be deterministic: two
 * streams built from the same inputs yield the same sequence.
 */
class TraceStream
{
  public:
    virtual ~TraceStream() = default;

    /** @return the next record, or nullopt at end of trace. */
    virtual std::optional<TraceRecord> next() = 0;

    /**
     * Advance the stream position past @p n records without returning
     * them (sampled simulation's fast-forward with functional warming
     * disabled). @return the records actually skipped — less than @p n
     * only at end of trace. The default walks next(); streams with
     * random-access backing override with O(1) position arithmetic.
     */
    virtual std::size_t
    skip(std::size_t n)
    {
        std::size_t k = 0;
        while (k < n && next())
            ++k;
        return k;
    }

    /**
     * Fill @p out with up to @p max records, returning the count
     * (short only at end of trace). Yields exactly the sequence
     * repeated next() calls would — this is the bulk entry point for
     * detailed fetch's read-ahead and fast-forward functional warming,
     * where one virtual call per instruction (plus the optional<>
     * return) is the dominant cost.
     * The default loops next(); generators override it.
     */
    virtual std::size_t
    nextBatch(TraceRecord *out, std::size_t max)
    {
        std::size_t k = 0;
        while (k < max) {
            std::optional<TraceRecord> rec = next();
            if (!rec)
                break;
            out[k++] = *rec;
        }
        return k;
    }
};

/**
 * A trace held in memory. Optionally replays the sequence forever, which
 * turns a single loop body into an unbounded instruction stream.
 */
class VectorTraceStream : public TraceStream
{
  public:
    explicit VectorTraceStream(std::vector<TraceRecord> records,
                               bool loop = false)
        : recs(std::move(records)), looping(loop), pos(0)
    {}

    std::optional<TraceRecord>
    next() override
    {
        if (pos >= recs.size()) {
            if (!looping || recs.empty())
                return std::nullopt;
            pos = 0;
        }
        return recs[pos++];
    }

  private:
    std::vector<TraceRecord> recs;
    bool looping;
    std::size_t pos;
};

} // namespace vpr

#endif // VPR_TRACE_STREAM_HH
