#include "sim/result_cache.hh"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <ostream>
#include <string_view>

#include "common/io/zio.hh"
#include "common/logging.hh"
#include "sim/experiment.hh"
#include "sim/params.hh"

namespace vpr
{

namespace
{

std::string
toHex16(std::uint64_t v)
{
    static const char *hex = "0123456789abcdef";
    std::string out;
    for (int shift = 60; shift >= 0; shift -= 4)
        out += hex[(v >> shift) & 0xf];
    return out;
}

std::uint64_t
bitsOf(double d)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    return bits;
}

double
doubleOf(std::uint64_t bits)
{
    double d = 0.0;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
}

/** LEB128: seven bits per byte, low group first, high bit = more. */
void
appendVarint(std::string &out, std::uint64_t v)
{
    for (; v >= 0x80; v >>= 7)
        out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    out.push_back(static_cast<char>(v));
}

void
appendU64le(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

/** Bounds-checked reader over an entry payload; every failure throws
 *  FormatError, which the loader turns into a miss. */
class PayloadReader
{
  public:
    explicit PayloadReader(std::string_view data) : rest(data) {}

    /** The value of the next "key=value" header line. */
    std::string_view
    header(std::string_view key)
    {
        const std::string_view line = nextLine();
        if (line.size() <= key.size() || line.substr(0, key.size()) != key ||
            line[key.size()] != '=')
            throw FormatError("result-cache entry: missing '" +
                              std::string(key) + "' header");
        return line.substr(key.size() + 1);
    }

    std::string_view
    nextLine()
    {
        const std::size_t nl = rest.find('\n');
        if (nl == std::string_view::npos)
            throw FormatError("result-cache entry: truncated header");
        const std::string_view line = rest.substr(0, nl);
        rest.remove_prefix(nl + 1);
        return line;
    }

    std::string_view
    take(std::size_t n)
    {
        if (rest.size() < n)
            throw FormatError("result-cache entry: truncated payload");
        const std::string_view out = rest.substr(0, n);
        rest.remove_prefix(n);
        return out;
    }

    /** One canonical LEB128 varint of at most 64 bits. */
    std::uint64_t
    varint()
    {
        std::uint64_t v = 0;
        for (unsigned shift = 0;; shift += 7) {
            if (rest.empty())
                throw FormatError("result-cache entry: truncated value");
            const auto byte = static_cast<unsigned char>(rest.front());
            rest.remove_prefix(1);
            if (shift == 63 && byte > 1)
                throw FormatError("result-cache entry: counter "
                                  "overflows 64 bits");
            v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
            if (!(byte & 0x80)) {
                if (byte == 0 && shift > 0)
                    throw FormatError("result-cache entry: "
                                      "non-canonical counter");
                return v;
            }
        }
    }

    std::uint64_t
    u64le()
    {
        const std::string_view bytes = take(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(bytes[i]))
                 << (8 * i);
        return v;
    }

    bool done() const { return rest.empty(); }

  private:
    std::string_view rest;
};

/** Strict whole-field unsigned parse in @p base; throws on junk. */
std::uint64_t
parseField(std::string_view text, int base, const char *what)
{
    std::uint64_t v = 0;
    const char *end = text.data() + text.size();
    const std::from_chars_result r =
        std::from_chars(text.data(), end, v, base);
    if (r.ec != std::errc() || r.ptr != end)
        throw FormatError("result-cache entry: bad " + std::string(what) +
                          " '" + std::string(text) + "'");
    return v;
}

/**
 * A record's column layout — every metric's (name, description, kind),
 * in order — and the packed block that stores it: a nested VPRZ
 * container of kind "schema" holding one "K\tname\tdesc" line per
 * metric (K = U or R), deflated when zlib is present. Immutable once
 * built, so a memoised one is shared without a lock.
 */
struct Schema
{
    std::string block;
    MetricsRecord layout;  ///< the columns, every value zero
};

bool
sameLayout(const MetricsRecord &a, const MetricsRecord &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const Metric &x = a.all()[i];
        const Metric &y = b.all()[i];
        if (x.nameSym != y.nameSym || x.descSym != y.descSym ||
            x.kind != y.kind)
            return false;
    }
    return true;
}

void
addColumn(MetricsRecord &layout, Metric::Kind kind, stats::SymId name,
          stats::SymId desc)
{
    if (kind == Metric::Kind::UInt)
        layout.setUInt(name, desc, 0);
    else
        layout.setReal(name, desc, 0.0);
}

/** Pack the schema of @p record (the store side of a memo miss). */
std::shared_ptr<const Schema>
encodeSchema(const MetricsRecord &record)
{
    auto schema = std::make_shared<Schema>();
    std::string text;
    for (const Metric &m : record.all()) {
        VPR_ASSERT(m.name().find_first_of("\t\n") == std::string::npos &&
                       m.desc().find_first_of("\t\n") ==
                           std::string::npos,
                   "metric unsafe for the result-cache encoding: '",
                   m.name(), "'");
        text += m.kind == Metric::Kind::UInt ? "U\t" : "R\t";
        text += m.name();
        text += '\t';
        text += m.desc();
        text += '\n';
        addColumn(schema->layout, m.kind, m.nameSym, m.descSym);
    }
    schema->block = vprzPack(text, "schema", /*compress=*/true);
    return schema;
}

/** Verify and parse a schema block no memo entry vouches for: its own
 *  container checks, the line grammar, and unique names. */
std::shared_ptr<const Schema>
decodeSchema(std::string_view block)
{
    auto schema = std::make_shared<Schema>();
    schema->block.assign(block);
    const std::string text = vprzUnpack(schema->block, "schema");
    stats::SymbolTable &symbols = stats::SymbolTable::global();
    std::size_t lines = 0;
    for (std::size_t at = 0; at < text.size(); ++lines) {
        const std::size_t nl = text.find('\n', at);
        if (nl == std::string::npos)
            throw FormatError("result-cache schema: unterminated line");
        const std::string_view line(text.data() + at, nl - at);
        at = nl + 1;
        const std::size_t tab =
            line.size() < 2 || line[1] != '\t' ? std::string_view::npos
                                               : line.find('\t', 2);
        if (tab == std::string_view::npos ||
            line.find('\t', tab + 1) != std::string_view::npos)
            throw FormatError("result-cache schema: malformed line");
        if (line[0] != 'U' && line[0] != 'R')
            throw FormatError("result-cache schema: unknown metric kind");
        addColumn(schema->layout,
                  line[0] == 'U' ? Metric::Kind::UInt : Metric::Kind::Real,
                  symbols.intern(line.substr(2, tab - 2)),
                  symbols.intern(line.substr(tab + 1)));
    }
    if (schema->layout.size() != lines)
        throw FormatError("result-cache schema: duplicate metric names");
    return schema;
}

/**
 * Process-wide memo of verified schemas, searched both ways: by a
 * record's layout when storing (so the deflate runs once per schema)
 * and by block bytes when loading (so inflate, parsing and interning
 * run once per schema). A block equal to a memoised one equals bytes
 * that were already verified. Bounded to kCapacity schemas, most
 * recently used first; a new one evicts the least recently used, so
 * however many schemas a process meets (damaged entries that still
 * parse, a cache directory shared by several builds), the ones in use
 * stay memoised.
 */
class SchemaMemo
{
  public:
    static constexpr std::size_t kCapacity = 8;

    std::shared_ptr<const Schema>
    byLayout(const MetricsRecord &record)
    {
        std::lock_guard<std::mutex> g(lock);
        return touch([&](const Schema &s) {
            return sameLayout(s.layout, record);
        });
    }

    std::shared_ptr<const Schema>
    byBlock(std::string_view block)
    {
        std::lock_guard<std::mutex> g(lock);
        return touch([&](const Schema &s) { return s.block == block; });
    }

    /** Keep @p fresh; a racing thread may have kept an equal schema
     *  first, which is then returned instead. */
    std::shared_ptr<const Schema>
    add(std::shared_ptr<const Schema> fresh)
    {
        std::lock_guard<std::mutex> g(lock);
        if (auto kept = touch([&](const Schema &s) {
                return s.block == fresh->block;
            }))
            return kept;
        if (schemas.size() == kCapacity)
            schemas.pop_back();
        schemas.insert(schemas.begin(), fresh);
        return fresh;
    }

  private:
    /** The first schema @p match accepts, moved to the front; the
     *  caller holds the lock. */
    template <typename Match>
    std::shared_ptr<const Schema>
    touch(Match &&match)
    {
        for (auto it = schemas.begin(); it != schemas.end(); ++it)
            if (match(**it)) {
                std::rotate(schemas.begin(), it, it + 1);
                return schemas.front();
            }
        return nullptr;
    }

    std::mutex lock;
    /** Most recently used first. */
    std::vector<std::shared_ptr<const Schema>> schemas;
};

SchemaMemo &
schemaMemo()
{
    static SchemaMemo memo;
    return memo;
}

const std::string &
formatLine()
{
    static const std::string line =
        "vpr-result v" + std::to_string(kResultCacheFormatVersion);
    return line;
}

/**
 * Serialize one record (entry format v3): the header lines, the schema
 * block, then one value per metric — counters as LEB128 varints (most
 * are zero: one byte), reals as their raw IEEE-754 bits, so a replayed
 * record renders byte-identically in every exporter.
 */
std::string
encodeEntry(std::uint64_t digest, const std::string &benchmark,
            const SimResults &results)
{
    const MetricsRecord &record = results.metrics;
    std::shared_ptr<const Schema> schema = schemaMemo().byLayout(record);
    if (!schema)
        schema = schemaMemo().add(encodeSchema(record));

    std::string out = formatLine() + "\ndigest=" + toHex16(digest) +
                      "\nbenchmark=" + benchmark +
                      "\nmetrics=" + std::to_string(record.size()) +
                      "\nschema=" + std::to_string(schema->block.size()) +
                      "\n";
    out.reserve(out.size() + schema->block.size() + 9 * record.size());
    out += schema->block;
    for (const Metric &m : record.all()) {
        if (m.kind == Metric::Kind::UInt)
            appendVarint(out, m.uval);
        else
            appendU64le(out, bitsOf(m.rval));
    }
    return out;
}

/** Invert encodeEntry; throws FormatError on any malformed or
 *  mismatching field. */
SimResults
decodeEntry(const std::string &payload, std::uint64_t expectDigest,
            const std::string &expectBenchmark)
{
    PayloadReader in(payload);
    if (in.nextLine() != formatLine())
        throw FormatError("result-cache entry: bad format line");
    if (parseField(in.header("digest"), 16, "digest") != expectDigest)
        throw FormatError("result-cache entry: digest mismatch (entry "
                          "for a different configuration)");
    if (in.header("benchmark") != expectBenchmark)
        throw FormatError("result-cache entry: benchmark mismatch");
    const std::uint64_t count =
        parseField(in.header("metrics"), 10, "metric count");
    const std::string_view block =
        in.take(parseField(in.header("schema"), 10, "schema size"));

    std::shared_ptr<const Schema> schema = schemaMemo().byBlock(block);
    if (!schema)
        schema = schemaMemo().add(decodeSchema(block));
    if (schema->layout.size() != count)
        throw FormatError("result-cache entry: metric count disagrees "
                          "with its schema");

    SimResults out;
    out.metrics = schema->layout;
    for (const Metric &m : schema->layout.all()) {
        if (m.kind == Metric::Kind::UInt)
            out.metrics.setUInt(m.nameSym, m.descSym, in.varint());
        else
            out.metrics.setReal(m.nameSym, m.descSym,
                                doubleOf(in.u64le()));
    }
    if (!in.done())
        throw FormatError("result-cache entry: trailing bytes");
    return out;
}

/** Feed "key=value\n" to an FNV-1a stream without building the line. */
std::uint64_t
hashLine(std::uint64_t h, std::string_view key, std::string_view value)
{
    h = fnv1a(key.data(), key.size(), h);
    h = fnv1a("=", 1, h);
    h = fnv1a(value.data(), value.size(), h);
    return fnv1a("\n", 1, h);
}

} // namespace

ResultCacheCounters &
resultCacheCounters()
{
    static ResultCacheCounters counters;
    return counters;
}

std::uint64_t
resultCacheDigest(const GridCell &cell)
{
    std::uint64_t h = fnv1a("result", 6);
    const std::uint64_t version = kResultCacheFormatVersion;
    h = fnv1a(&version, sizeof(version), h);
    // The instruction scale rescales skip/measure after provenance is
    // recorded, so it is part of the content key even though it is not
    // a parameter. Round-trip-exact text, as results_io records it.
    char scale[32];
    const std::to_chars_result r =
        std::to_chars(scale, scale + sizeof(scale), instructionScale(),
                      std::chars_format::general, 17);
    h = hashLine(h, "scale", std::string_view(scale, r.ptr - scale));
    for (const auto &[name, value] : configProvenance(cell.config))
        h = hashLine(h, name, value);
    h = fnv1a(cell.benchmark.data(), cell.benchmark.size(), h);
    return h;
}

std::string
resultCachePath(const std::string &dir, const std::string &benchmark,
                std::uint64_t digest)
{
    return dir + "/" + benchmark + "-" + toHex16(digest) + ".vprr";
}

bool
loadCachedResult(const std::string &dir, const GridCell &cell,
                 SimResults &out)
{
    const std::uint64_t digest = resultCacheDigest(cell);
    const std::string path =
        resultCachePath(dir, cell.benchmark, digest);
    std::string raw;
    if (!readFileBytes(path, raw)) {
        resultCacheCounters().misses.fetch_add(1);
        return false;
    }
    try {
        out = decodeEntry(vprzUnpack(raw, "result"), digest,
                          cell.benchmark);
    } catch (const FormatError &e) {
        VPR_WARN("discarding damaged result-cache entry '", path,
                 "': ", e.what(), " (re-simulating the cell)");
        resultCacheCounters().corrupt.fetch_add(1);
        resultCacheCounters().misses.fetch_add(1);
        return false;
    }
    resultCacheCounters().hits.fetch_add(1);
    return true;
}

void
storeCachedResult(const std::string &dir, const GridCell &cell,
                  const SimResults &results)
{
    const std::uint64_t digest = resultCacheDigest(cell);
    const std::string path =
        resultCachePath(dir, cell.benchmark, digest);
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);  // best effort
    // The schema block is deflated on its own; the container around
    // the whole entry is stored, so a hit inflates nothing.
    const std::string entry =
        vprzPack(encodeEntry(digest, cell.benchmark, results), "result",
                 /*compress=*/false);
    if (!writeFileAtomic(path, entry)) {
        VPR_WARN("cannot write result-cache entry '", path,
                 "' (results are unaffected)");
        return;
    }
    resultCacheCounters().stores.fetch_add(1);
}

std::vector<CacheFileInfo>
listCacheFiles(const std::vector<std::string> &dirs)
{
    namespace fs = std::filesystem;
    // file_clock's epoch is implementation-defined (not 1970 on
    // libstdc++); rebase through "now" on both clocks so mtime reads
    // as Unix seconds. One shared offset keeps the LRU order exact.
    const auto fileNow = fs::file_time_type::clock::now();
    const auto sysNow = std::chrono::system_clock::now();
    std::vector<CacheFileInfo> files;
    for (const std::string &dir : dirs) {
        if (dir.empty())
            continue;
        std::error_code ec;
        fs::directory_iterator it(dir, ec);
        if (ec) {
            VPR_WARN("cache GC: cannot list '", dir, "': ",
                     ec.message());
            continue;
        }
        for (const fs::directory_entry &entry : it) {
            const std::string ext = entry.path().extension().string();
            if (ext != ".vprr")
                continue;
            if (!entry.is_regular_file(ec) || ec)
                continue;
            CacheFileInfo info;
            info.path = entry.path().string();
            info.sizeBytes = entry.file_size(ec);
            if (ec)
                continue;
            const auto mtime = entry.last_write_time(ec);
            if (ec)
                continue;
            info.mtime =
                std::chrono::duration_cast<std::chrono::seconds>(
                    (mtime - fileNow) + sysNow.time_since_epoch())
                    .count();
            files.push_back(std::move(info));
        }
    }
    return files;
}

CacheGcPlan
planCacheGc(const std::vector<std::string> &dirs,
            std::uint64_t budgetBytes)
{
    std::vector<CacheFileInfo> files = listCacheFiles(dirs);
    // Oldest first; path tiebreak keeps the plan deterministic when a
    // burst of grid cells lands inside one mtime granule.
    std::sort(files.begin(), files.end(),
              [](const CacheFileInfo &a, const CacheFileInfo &b) {
                  return a.mtime != b.mtime ? a.mtime < b.mtime
                                            : a.path < b.path;
              });
    CacheGcPlan plan;
    for (const CacheFileInfo &f : files)
        plan.totalBytes += f.sizeBytes;

    std::uint64_t remaining = plan.totalBytes;
    for (const CacheFileInfo &f : files) {
        if (remaining <= budgetBytes) {
            ++plan.keptFiles;
            continue;
        }
        remaining -= f.sizeBytes;
        plan.evictBytes += f.sizeBytes;
        plan.evict.push_back(f);
    }
    return plan;
}

std::size_t
applyCacheGc(const CacheGcPlan &plan)
{
    std::size_t removed = 0;
    for (const CacheFileInfo &f : plan.evict) {
        std::error_code ec;
        if (std::filesystem::remove(f.path, ec) && !ec)
            ++removed;
    }
    return removed;
}

bool
parseByteSize(const std::string &text, std::uint64_t &bytes)
{
    if (text.empty())
        return false;
    std::uint64_t shift = 0;
    std::string digits = text;
    switch (text.back()) {
      case 'k': case 'K': shift = 10; break;
      case 'm': case 'M': shift = 20; break;
      case 'g': case 'G': shift = 30; break;
      case 't': case 'T': shift = 40; break;
      default: break;
    }
    if (shift)
        digits.pop_back();
    std::uint64_t value = 0;
    if (!parseParamU64(digits, value))
        return false;
    if (shift && value > (std::numeric_limits<std::uint64_t>::max() >>
                          shift))
        return false;
    bytes = value << shift;
    return true;
}

void
printCacheGcPlan(std::ostream &os, const CacheGcPlan &plan,
                 std::uint64_t budgetBytes, bool dryRun)
{
    for (const CacheFileInfo &f : plan.evict)
        os << (dryRun ? "would evict " : "evict ") << f.path << " ("
           << f.sizeBytes << " bytes, mtime " << f.mtime << ")\n";
    os << "cache GC: " << plan.totalBytes << " bytes in "
       << (plan.keptFiles + plan.evict.size()) << " files, budget "
       << budgetBytes << " bytes: "
       << (dryRun ? "would evict " : "evicting ") << plan.evict.size()
       << " files (" << plan.evictBytes << " bytes), keeping "
       << plan.keptFiles << "\n";
}

} // namespace vpr
