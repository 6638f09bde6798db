/**
 * @file
 * Streaming compression + self-identifying container ("VPRZ") for
 * result-cache entries and large grid result files, plus magic-byte
 * format autodetection so readers ingest compressed and plain inputs
 * alike.
 *
 * Container layout:
 *
 *   magic "VPRZ" (4 bytes)
 *   u8  container version (1)
 *   u8  codec: 0 = store (no compression), 1 = zlib deflate
 *   u16 kind length, kind bytes — what the payload is ("result",
 *       "results"); a reader expecting one kind rejects another
 *   u64 raw (uncompressed) payload size
 *   u64 stored (possibly compressed) payload size
 *   stored payload bytes
 *   u64 FNV-1a of the raw payload
 *
 * zlib is found by CMake; when absent the codec falls back to store so
 * the container still round-trips (compression is a size optimization,
 * never a correctness dependency). Every malformed input throws
 * FormatError with a message naming the first failed check.
 */

#ifndef VPR_COMMON_IO_ZIO_HH
#define VPR_COMMON_IO_ZIO_HH

#include <cstdint>
#include <string>

#include "common/logging.hh"

namespace vpr
{

/** A damaged or foreign file: wrong magic, version skew, truncation,
 *  checksum or field mismatch. The result-cache reader catches it and
 *  re-simulates the cell; anywhere else it is an ordinary user Error. */
class FormatError : public Error
{
  public:
    using Error::Error;
};

/** FNV-1a's 64-bit offset basis: the hash of no bytes. */
inline constexpr std::uint64_t kFnv1aBasis = 14695981039346656037ull;

/** FNV-1a 64-bit over a byte range (payload checksums, cache keys),
 *  continuing from @p seed. */
std::uint64_t fnv1a(const void *data, std::size_t n,
                    std::uint64_t seed = kFnv1aBasis);

inline std::uint64_t
fnv1a(const std::string &s, std::uint64_t seed = kFnv1aBasis)
{
    return fnv1a(s.data(), s.size(), seed);
}

/** Detected on-disk format of an input file (by magic bytes). */
enum class FileFormat : std::uint8_t
{
    Vprz,   ///< "VPRZ" compressed container
    Plain,  ///< anything else (CSV/JSON results, text)
};

/** Classify a buffer by its leading magic bytes. */
FileFormat guessFormat(const std::string &data);

/** True when zlib was linked in (codec 1 available). */
bool zlibAvailable();

/** Wrap @p payload in a VPRZ container of @p kind, deflated when zlib
 *  is available (or @p compress is false → store codec). */
std::string vprzPack(const std::string &payload, const std::string &kind,
                     bool compress = true);

/** Unwrap a VPRZ container, inflating as needed. Throws FormatError on
 *  any malformed field or on a kind mismatch (@p expectKind empty =
 *  accept any kind). */
std::string vprzUnpack(const std::string &raw,
                       const std::string &expectKind = std::string());

/** Read a whole file into a string; false when unreadable. */
bool readFileBytes(const std::string &path, std::string &out);

/** Write @p data to @p path atomically (unique temp file in the same
 *  directory + rename), so concurrent grid cells racing to publish the
 *  same cache entry never expose a partial file. False on I/O failure. */
bool writeFileAtomic(const std::string &path, const std::string &data);

/** Write @p data to @p path, a file a user named for output. A new or
 *  regular file is replaced by writeFileAtomic; any other existing node
 *  — a device such as /dev/null, a FIFO, /dev/fd/N or a symlink — is
 *  written through in place, since a rename would replace the node
 *  itself. False on I/O failure. */
bool writeOutputFile(const std::string &path, const std::string &data);

/** Whether writeOutputFile(@p path, ...) can succeed: @p path is no
 *  directory, and either the node written in place is writable (for a
 *  dangling symlink: its target can be created) or one empty temp file
 *  can be created (then removed) beside @p path. Lets a caller refuse an
 *  unwritable path before doing the work it would publish. */
bool canWriteOutputFile(const std::string &path);

} // namespace vpr

#endif // VPR_COMMON_IO_ZIO_HH
