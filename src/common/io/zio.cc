#include "common/io/zio.hh"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

#ifdef VPR_HAVE_ZLIB
#include <zlib.h>
#endif

namespace vpr
{

namespace
{

constexpr char kVprzMagic[4] = {'V', 'P', 'R', 'Z'};
constexpr std::uint8_t kVprzVersion = 1;
constexpr std::uint8_t kCodecStore = 0;
constexpr std::uint8_t kCodecZlib = 1;

void
appendU64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint64_t
readU64(const std::string &in, std::size_t &pos)
{
    if (in.size() - pos < 8)
        throw FormatError("truncated VPRZ container");
    std::uint64_t w = 0;
    for (int i = 0; i < 8; ++i)
        w |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(in[pos + i]))
             << (8 * i);
    pos += 8;
    return w;
}

#ifdef VPR_HAVE_ZLIB

/** Deflate @p in through a z_stream in bounded chunks. */
std::string
deflateBytes(const std::string &in)
{
    z_stream zs;
    std::memset(&zs, 0, sizeof(zs));
    if (deflateInit(&zs, Z_DEFAULT_COMPRESSION) != Z_OK)
        throw FormatError("zlib deflateInit failed");
    std::string out;
    char chunk[64 * 1024];
    zs.next_in =
        reinterpret_cast<Bytef *>(const_cast<char *>(in.data()));
    zs.avail_in = static_cast<uInt>(in.size());
    int rc;
    do {
        zs.next_out = reinterpret_cast<Bytef *>(chunk);
        zs.avail_out = sizeof(chunk);
        rc = deflate(&zs, Z_FINISH);
        out.append(chunk, sizeof(chunk) - zs.avail_out);
    } while (rc == Z_OK);
    deflateEnd(&zs);
    if (rc != Z_STREAM_END)
        throw FormatError("zlib deflate failed");
    return out;
}

/** Inflate @p in, which must expand to exactly @p rawSize bytes. */
std::string
inflateBytes(const std::string &in, std::uint64_t rawSize)
{
    z_stream zs;
    std::memset(&zs, 0, sizeof(zs));
    if (inflateInit(&zs) != Z_OK)
        throw FormatError("zlib inflateInit failed");
    std::string out;  // rawSize is untrusted: grow, never reserve it
    char chunk[64 * 1024];
    zs.next_in =
        reinterpret_cast<Bytef *>(const_cast<char *>(in.data()));
    zs.avail_in = static_cast<uInt>(in.size());
    int rc;
    do {
        zs.next_out = reinterpret_cast<Bytef *>(chunk);
        zs.avail_out = sizeof(chunk);
        rc = inflate(&zs, Z_NO_FLUSH);
        if (rc != Z_OK && rc != Z_STREAM_END) {
            inflateEnd(&zs);
            throw FormatError("zlib inflate failed (corrupted stream)");
        }
        out.append(chunk, sizeof(chunk) - zs.avail_out);
        if (out.size() > rawSize) {
            inflateEnd(&zs);
            throw FormatError("VPRZ payload inflates past its declared "
                              "size");
        }
    } while (rc != Z_STREAM_END);
    inflateEnd(&zs);
    if (out.size() != rawSize)
        throw FormatError("VPRZ payload shorter than declared");
    return out;
}

#endif // VPR_HAVE_ZLIB

} // namespace

std::uint64_t
fnv1a(const void *data, std::size_t n, std::uint64_t seed)
{
    std::uint64_t h = seed;
    const unsigned char *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

FileFormat
guessFormat(const std::string &data)
{
    if (data.size() >= sizeof(kVprzMagic) &&
        std::memcmp(data.data(), kVprzMagic, sizeof(kVprzMagic)) == 0)
        return FileFormat::Vprz;
    return FileFormat::Plain;
}

bool
zlibAvailable()
{
#ifdef VPR_HAVE_ZLIB
    return true;
#else
    return false;
#endif
}

std::string
vprzPack(const std::string &payload, const std::string &kind,
         bool compress)
{
    std::uint8_t codec = kCodecStore;
    std::string stored;
#ifdef VPR_HAVE_ZLIB
    if (compress) {
        stored = deflateBytes(payload);
        codec = kCodecZlib;
    }
#else
    (void)compress;
#endif
    if (codec == kCodecStore)
        stored = payload;

    std::string out;
    out.reserve(4 + 2 + 2 + kind.size() + 8 + 8 + stored.size() + 8);
    out.append(kVprzMagic, sizeof(kVprzMagic));
    out.push_back(static_cast<char>(kVprzVersion));
    out.push_back(static_cast<char>(codec));
    out.push_back(static_cast<char>(kind.size() & 0xff));
    out.push_back(static_cast<char>((kind.size() >> 8) & 0xff));
    out += kind;
    appendU64(out, payload.size());
    appendU64(out, stored.size());
    out += stored;
    appendU64(out, fnv1a(payload));
    return out;
}

std::string
vprzUnpack(const std::string &raw, const std::string &expectKind)
{
    if (raw.size() < 8 ||
        std::memcmp(raw.data(), kVprzMagic, sizeof(kVprzMagic)) != 0)
        throw FormatError("not a VPRZ container (wrong magic)");
    std::size_t pos = sizeof(kVprzMagic);
    std::uint8_t version = static_cast<unsigned char>(raw[pos++]);
    if (version != kVprzVersion)
        throw FormatError("VPRZ container version skew (file v" +
                          std::to_string(version) + ", expected v" +
                          std::to_string(kVprzVersion) + ")");
    std::uint8_t codec = static_cast<unsigned char>(raw[pos++]);
    std::size_t kindLen =
        static_cast<unsigned char>(raw[pos]) |
        (static_cast<std::size_t>(static_cast<unsigned char>(raw[pos + 1]))
         << 8);
    pos += 2;
    if (raw.size() - pos < kindLen)
        throw FormatError("truncated VPRZ container");
    std::string kind = raw.substr(pos, kindLen);
    pos += kindLen;
    if (!expectKind.empty() && kind != expectKind)
        throw FormatError("VPRZ payload kind mismatch (file holds '" +
                          kind + "', expected '" + expectKind + "')");
    std::uint64_t rawSize = readU64(raw, pos);
    std::uint64_t storedSize = readU64(raw, pos);
    if (raw.size() - pos < 8 || raw.size() - pos - 8 < storedSize)
        throw FormatError("truncated VPRZ container");
    std::string stored = raw.substr(pos, storedSize);
    pos += storedSize;
    std::uint64_t checksum = readU64(raw, pos);
    if (pos != raw.size())
        throw FormatError("trailing garbage after VPRZ container");

    std::string payload;
    if (codec == kCodecStore) {
        if (stored.size() != rawSize)
            throw FormatError("VPRZ stored size disagrees with raw size");
        payload = std::move(stored);
    } else if (codec == kCodecZlib) {
#ifdef VPR_HAVE_ZLIB
        payload = inflateBytes(stored, rawSize);
#else
        throw FormatError("VPRZ payload is zlib-compressed but this "
                          "build has no zlib");
#endif
    } else {
        throw FormatError("unknown VPRZ codec " + std::to_string(codec));
    }
    if (fnv1a(payload) != checksum)
        throw FormatError("VPRZ payload checksum mismatch (corrupted "
                          "file)");
    return payload;
}

bool
readFileBytes(const std::string &path, std::string &out)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return false;
    // A regular file is read into one buffer of its size (a result-cache
    // hit reads a whole entry this way); a pipe has no size and streams.
    is.seekg(0, std::ios::end);
    const std::streamoff size = is ? std::streamoff(is.tellg()) : -1;
    if (size >= 0) {
        is.seekg(0);
        out.resize(static_cast<std::size_t>(size));
        is.read(out.data(), size);
        return is.gcount() == size;
    }
    is.clear();
    out.assign(std::istreambuf_iterator<char>(is),
               std::istreambuf_iterator<char>());
    return is.good() || is.eof();
}

bool
writeFileAtomic(const std::string &path, const std::string &data)
{
    // Unique per (process, thread-order) so concurrent writers — other
    // grid-cell threads or whole other processes sharing a cache
    // directory — never collide on the temp name; rename() then makes
    // the publish atomic (last writer wins with identical content).
    static std::atomic<unsigned> tmpCounter{0};
    std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                      std::to_string(tmpCounter.fetch_add(1));
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os)
            return false;
        os.write(data.data(),
                 static_cast<std::streamsize>(data.size()));
        if (!os) {
            os.close();
            std::remove(tmp.c_str());
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

} // namespace vpr
