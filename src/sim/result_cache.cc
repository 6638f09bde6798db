#include "sim/result_cache.hh"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <limits>
#include <ostream>
#include <sstream>

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

/** Round-trip-exact text of the global instruction scale (the same
 *  rendering results_io records in the file metadata). */
std::string
scaleKeyText()
{
    std::ostringstream os;
    os.precision(17);
    os << instructionScale();
    return os.str();
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

/** Strict whole-string hex parse; throws FormatError on junk. */
std::uint64_t
parseHex64(const std::string &text)
{
    if (text.empty() || text.size() > 16)
        throw FormatError("result-cache entry: bad hex field '" + text +
                          "'");
    std::uint64_t v = 0;
    for (char c : text) {
        int digit;
        if (c >= '0' && c <= '9')
            digit = c - '0';
        else if (c >= 'a' && c <= 'f')
            digit = c - 'a' + 10;
        else
            throw FormatError("result-cache entry: bad hex field '" +
                              text + "'");
        v = (v << 4) | static_cast<std::uint64_t>(digit);
    }
    return v;
}

/** One "key=value" header line; throws on mismatch of @p key. */
std::string
headerValue(std::istream &is, const std::string &key)
{
    std::string line;
    if (!std::getline(is, line) ||
        line.compare(0, key.size() + 1, key + "=") != 0)
        throw FormatError("result-cache entry: missing '" + key +
                          "' header");
    return line.substr(key.size() + 1);
}

/** Serialize one record: header + one tab-separated line per metric.
 *  Reals travel as raw IEEE-754 bits so a replayed record renders
 *  byte-identically in every exporter. */
std::string
encodeEntry(std::uint64_t digest, const std::string &benchmark,
            const SimResults &results)
{
    std::ostringstream os;
    os << "vpr-result v" << kResultCacheFormatVersion << "\n";
    os << "digest=" << toHex16(digest) << "\n";
    os << "benchmark=" << benchmark << "\n";
    os << "metrics=" << results.metrics.size() << "\n";
    for (const Metric &m : results.metrics.all()) {
        VPR_ASSERT(m.name().find('\t') == std::string::npos &&
                       m.desc().find('\t') == std::string::npos &&
                       m.desc().find('\n') == std::string::npos,
                   "metric unsafe for the result-cache encoding: '",
                   m.name(), "'");
        if (m.kind == Metric::Kind::UInt)
            os << "U\t" << m.name() << "\t" << m.uval;
        else
            os << "R\t" << m.name() << "\t" << toHex16(bitsOf(m.rval));
        os << "\t" << m.desc() << "\n";
    }
    return os.str();
}

/** Invert encodeEntry; throws FormatError on any malformed or
 *  mismatching field. */
SimResults
decodeEntry(const std::string &payload, std::uint64_t expectDigest,
            const std::string &expectBenchmark)
{
    std::istringstream is(payload);
    std::string line;
    if (!std::getline(is, line) ||
        line != "vpr-result v" +
                    std::to_string(kResultCacheFormatVersion))
        throw FormatError("result-cache entry: bad format line");
    if (parseHex64(headerValue(is, "digest")) != expectDigest)
        throw FormatError("result-cache entry: digest mismatch (entry "
                          "for a different configuration)");
    if (headerValue(is, "benchmark") != expectBenchmark)
        throw FormatError("result-cache entry: benchmark mismatch");
    std::uint64_t count = 0;
    if (!parseParamU64(headerValue(is, "metrics"), count))
        throw FormatError("result-cache entry: bad metric count");

    SimResults out;
    for (std::uint64_t i = 0; i < count; ++i) {
        if (!std::getline(is, line))
            throw FormatError("result-cache entry: truncated metric "
                              "list");
        std::size_t t1 = line.find('\t');
        std::size_t t2 =
            t1 == std::string::npos ? t1 : line.find('\t', t1 + 1);
        std::size_t t3 =
            t2 == std::string::npos ? t2 : line.find('\t', t2 + 1);
        if (line.size() < 2 || line[1] != '\t' ||
            t3 == std::string::npos)
            throw FormatError("result-cache entry: malformed metric "
                              "line");
        const std::string name = line.substr(t1 + 1, t2 - t1 - 1);
        const std::string value = line.substr(t2 + 1, t3 - t2 - 1);
        const std::string desc = line.substr(t3 + 1);
        if (line[0] == 'U') {
            std::uint64_t v = 0;
            if (!parseParamU64(value, v))
                throw FormatError("result-cache entry: bad counter "
                                  "value '" + value + "'");
            out.metrics.setUInt(name, desc, v);
        } else if (line[0] == 'R') {
            out.metrics.setReal(name, desc, doubleOf(parseHex64(value)));
        } else {
            throw FormatError("result-cache entry: unknown metric kind");
        }
    }
    if (std::getline(is, line) && !line.empty())
        throw FormatError("result-cache entry: trailing garbage");
    if (out.metrics.size() != count)
        throw FormatError("result-cache entry: duplicate metric names");
    return out;
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
    // a parameter.
    const std::string scale = "scale=" + scaleKeyText() + "\n";
    h = fnv1a(scale.data(), scale.size(), h);
    for (const auto &[name, value] : configProvenance(cell.config)) {
        const std::string line = name + "=" + value + "\n";
        h = fnv1a(line.data(), line.size(), h);
    }
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
    const std::string entry =
        vprzPack(encodeEntry(digest, cell.benchmark, results), "result",
                 cell.config.resultCache.compress);
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
