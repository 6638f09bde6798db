#include "sim/experiment.hh"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iomanip>

#include "common/logging.hh"
#include "sim/params.hh"

namespace vpr
{

double
harmonicMean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double denom = 0.0;
    for (double v : values) {
        VPR_ASSERT(v > 0.0, "harmonic mean of non-positive value");
        denom += 1.0 / v;
    }
    return static_cast<double>(values.size()) / denom;
}

SimResults
runOne(const std::string &benchmark, SimConfig config)
{
    applyInstructionScale(config);
    Simulator sim(benchmark, config);
    return sim.run();
}

std::vector<SimResults>
runGrid(const std::vector<GridCell> &cells, unsigned jobs,
        const std::string &cacheDir)
{
    ParallelExperimentEngine engine(jobs, cacheDir);
    return engine.run(cells);
}

ShardSpec
parseShard(const char *text)
{
    const std::string spec = text;
    const std::size_t slash = spec.find('/');
    std::uint64_t i = 0, n = 0;
    if (slash == std::string::npos ||
        !parseParamU64(spec.substr(0, slash), i) ||
        !parseParamU64(spec.substr(slash + 1), n))
        VPR_FATAL("bad shard '", text, "' (want i/N, e.g. 0/4)");
    if (n == 0 || n > 4096 || i >= n)
        VPR_FATAL("bad shard '", text, "' (want i/N with 0 <= i < N)");
    return ShardSpec{static_cast<unsigned>(i), static_cast<unsigned>(n)};
}

std::vector<std::size_t>
shardCellIndices(std::size_t totalCells, const ShardSpec &shard)
{
    VPR_ASSERT(shard.count > 0 && shard.index < shard.count,
               "invalid shard ", shard.index, "/", shard.count);
    std::vector<std::size_t> indices;
    for (std::size_t i = shard.index; i < totalCells; i += shard.count)
        indices.push_back(i);
    return indices;
}

std::vector<GridCell>
selectCells(const std::vector<GridCell> &cells,
            const std::vector<std::size_t> &indices)
{
    std::vector<GridCell> out;
    out.reserve(indices.size());
    for (std::size_t i : indices) {
        VPR_ASSERT(i < cells.size(), "cell index ", i, " out of range");
        out.push_back(cells[i]);
    }
    return out;
}

double
parseInstsScale(const char *text)
{
    const char *end = text + std::strlen(text);
    double v = 0.0;
    const std::from_chars_result r = std::from_chars(text, end, v);
    if (r.ec != std::errc() || r.ptr != end || !std::isfinite(v) ||
        v <= 0.0)
        VPR_FATAL("bad VPR_INSTS_SCALE '", text,
                  "' (want a positive number, e.g. 0.05)");
    return v;
}

double
instructionScale()
{
    const char *env = std::getenv("VPR_INSTS_SCALE");
    return env ? parseInstsScale(env) : 1.0;
}

unsigned
parseJobs(const char *text, const char *what)
{
    std::uint64_t v = 0;
    if (!parseParamU64(text, v) || v > 4096)
        VPR_FATAL("bad ", what, " '", text,
                  "' (want 0 = one per hardware thread, or 1-4096 "
                  "workers)");
    return static_cast<unsigned>(v);  // 0 = one per hardware thread
}

std::string
parseCacheDir(const char *text)
{
    if (*text == '\0')
        VPR_FATAL("empty --result-cache directory (want "
                  "--result-cache=<dir>)");
    return text;
}

unsigned
defaultJobs()
{
    static const unsigned jobs = [] {
        const char *env = std::getenv("VPR_JOBS");
        return env ? parseJobs(env, "VPR_JOBS") : 1u;
    }();
    return jobs;
}

void
applyInstructionScale(SimConfig &config)
{
    const double s = instructionScale();
    auto scaled = [s](const char *key, std::uint64_t budget) {
        const double v = static_cast<double>(budget) * s;
        // 2^64 is the first double past the u64 range; converting it or
        // anything above is undefined.
        if (!(v < 18446744073709551616.0))
            VPR_FATAL(key, " (", budget, ") times VPR_INSTS_SCALE (", s,
                      ") does not fit 64 bits");
        return static_cast<std::uint64_t>(v);
    };
    config.skipInsts = scaled("skip_insts", config.skipInsts);
    config.measureInsts = scaled("measure_insts", config.measureInsts);
    if (config.measureInsts < 1000)
        config.measureInsts = 1000;
}

void
printTableHeader(std::ostream &os, const std::string &title,
                 const std::vector<std::string> &columns)
{
    os << "\n== " << title << " ==\n";
    os << std::left << std::setw(12) << "benchmark";
    for (const auto &c : columns)
        os << std::right << std::setw(12) << c;
    os << "\n";
    os << std::string(12 + 12 * columns.size(), '-') << "\n";
}

void
printTableRow(std::ostream &os, const std::string &label,
              const std::vector<double> &values, int precision)
{
    os << std::left << std::setw(12) << label;
    os << std::fixed << std::setprecision(precision);
    for (double v : values)
        os << std::right << std::setw(12) << v;
    os << "\n";
}

} // namespace vpr
