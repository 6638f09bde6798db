/**
 * @file
 * Binary trace file format: the repository's equivalent of the paper's
 * ATOM trace artifacts. Kernels (or external tools) can persist dynamic
 * instruction streams to disk and the simulator can replay them.
 *
 * Format: an 16-byte header ("VPRTRACE", version, record count) followed
 * by fixed-size little-endian records. The format is versioned so
 * future fields can be added without breaking old traces.
 */

#ifndef VPR_TRACE_TRACE_FILE_HH
#define VPR_TRACE_TRACE_FILE_HH

#include <cstdio>
#include <string>
#include <vector>

#include "trace/record.hh"
#include "trace/stream.hh"

namespace vpr
{

/** Current trace file format version. */
inline constexpr std::uint32_t kTraceFormatVersion = 1;

/**
 * Write trace records to @p path.
 * @return number of records written; throws Error on I/O errors.
 */
std::size_t writeTraceFile(const std::string &path,
                           const std::vector<TraceRecord> &records);

/**
 * Drain up to @p maxRecords from @p stream into a trace file, streaming
 * to disk (memory use does not grow with @p maxRecords).
 * @return number of records written; throws Error on I/O errors or a
 *         @p maxRecords past the format's 32-bit count.
 */
std::size_t writeTraceFile(const std::string &path, TraceStream &stream,
                           std::size_t maxRecords);

/**
 * Read a whole trace file into memory; throws Error naming the file
 * (and the record) when it is missing, truncated or malformed.
 */
std::vector<TraceRecord> readTraceFile(const std::string &path);

/** TraceStream over a trace file (loaded eagerly). */
class FileTraceStream : public TraceStream
{
  public:
    explicit FileTraceStream(const std::string &path, bool loop = false)
        : vec(readTraceFile(path), loop)
    {}

    std::optional<TraceRecord> next() override { return vec.next(); }
    void reset() override { vec.reset(); }
    std::size_t size() const { return vec.size(); }

  private:
    VectorTraceStream vec;
};

} // namespace vpr

#endif // VPR_TRACE_TRACE_FILE_HH
