#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "common/random.hh"
#include "figures.hh"
#include "sim/experiment.hh"
#include "sim/params.hh"
#include "sim/sweep.hh"
#include "trace/kernels/kernels.hh"

namespace perfbench
{

namespace
{

/** deriveSeed salt of the request generator. */
constexpr std::uint64_t kRequestSalt = 0x5eed5eedull;

const unsigned kRegfileSizes[] = {40, 48, 56, 64, 80, 96, 128};
const unsigned kMissPenalties[] = {20, 50, 100};
const char *const kSchemeAxis =
    "core.scheme=conventional,conv-early-release,vp-issue,vp-writeback";
constexpr std::size_t kSchemes = 4;

/** @p k distinct indices of [0, n), ascending. */
std::vector<std::size_t>
pickSorted(vpr::Random &rng, std::size_t n, std::size_t k)
{
    std::vector<std::size_t> idx(n);
    std::iota(idx.begin(), idx.end(), 0);
    for (std::size_t i = 0; i < k; ++i)
        std::swap(idx[i], idx[i + rng.below(n - i)]);
    idx.resize(k);
    std::sort(idx.begin(), idx.end());
    return idx;
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < text.size()) {
        std::size_t nl = text.find('\n', start);
        if (nl == std::string::npos)
            nl = text.size();
        if (nl > start)
            lines.push_back(text.substr(start, nl - start));
        start = nl + 1;
    }
    return lines;
}

std::vector<std::string>
splitCommas(const std::string &line)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    for (;;) {
        const std::size_t comma = line.find(',', start);
        out.push_back(line.substr(start, comma == std::string::npos
                                             ? std::string::npos
                                             : comma - start));
        if (comma == std::string::npos)
            return out;
        start = comma + 1;
    }
}

/** Header and data rows of a results CSV body. */
struct CsvTable
{
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;
};

CsvTable
parseCsv(const std::string &csv)
{
    CsvTable t;
    for (const std::string &line : splitLines(csv)) {
        if (line[0] == '#')
            continue;
        if (t.header.empty())
            t.header = splitCommas(line);
        else
            t.rows.push_back(splitCommas(line));
    }
    return t;
}

std::string
joinSizes(const std::vector<unsigned> &sizes)
{
    std::string out;
    for (unsigned s : sizes)
        out += (out.empty() ? "" : ",") + std::to_string(s);
    return out;
}

bool
ipcPlausible(double ipc)
{
    return std::isfinite(ipc) && ipc > 0.0 && ipc <= 8.0;
}

} // namespace

const char *
workloadName(Workload w)
{
    switch (w) {
      case Workload::PaperDetailed: return "paper_detailed";
      case Workload::PaperSampled: return "paper_sampled";
      case Workload::ResweepDaemon: return "resweep_daemon";
    }
    return "?";
}

bool
parseWorkload(const std::string &text, Workload &out)
{
    for (Workload w : {Workload::PaperDetailed, Workload::PaperSampled,
                       Workload::ResweepDaemon}) {
        if (text == workloadName(w)) {
            out = w;
            return true;
        }
    }
    return false;
}

double
workloadScale(Workload w)
{
    switch (w) {
      case Workload::PaperDetailed: return 0.25;
      case Workload::PaperSampled: return 2.0;
      case Workload::ResweepDaemon: return 1.0;
    }
    return 1.0;
}

const std::vector<std::string> &
paperFigures()
{
    static const std::vector<std::string> figures = {
        "table2_ipc",       "fig4_nrr_writeback", "fig5_nrr_issue",
        "fig6_wb_vs_issue", "fig7_regfile_size",  "regpressure"};
    return figures;
}

std::vector<vpr::GridCell>
buildFigureGrid(const std::string &figure, bool sampled, std::uint64_t seed)
{
    const vpr::bench::FigureDef *def = vpr::bench::findFigure(figure);
    if (!def)
        throw std::runtime_error("figure not registered: " + figure);
    const vpr::bench::SamplingPreset *preset =
        sampled ? vpr::bench::findSamplingPreset(figure) : nullptr;
    if (sampled && !preset)
        throw std::runtime_error("no sampling preset for " + figure);

    std::vector<vpr::GridCell> cells = def->build();
    for (vpr::GridCell &cell : cells) {
        cell.config.seed = seed;
        if (preset) {
            vpr::SamplingConfig &s = cell.config.sampling;
            s.enable = true;
            s.periodInsts = preset->periodInsts;
            s.warmupInsts = preset->warmupInsts;
            s.detailedInsts = preset->detailedInsts;
        }
    }
    return cells;
}

std::uint64_t
cellInstructions(const vpr::GridCell &cell)
{
    vpr::SimConfig config = cell.config;
    vpr::applyInstructionScale(config);
    return config.skipInsts + config.measureInsts;
}

std::string
checkCell(const vpr::GridCell &cell, const vpr::SimResults &r,
          std::uint64_t minIntervals)
{
    vpr::SimConfig config = cell.config;
    vpr::applyInstructionScale(config);
    if (!ipcPlausible(r.ipc()))
        return "ipc " + std::to_string(r.ipc()) + " outside (0, 8]";
    std::uint64_t budget = config.measureInsts;
    if (config.sampling.enable) {
        const std::uint64_t intervals =
            r.metrics.counter("core.ipc.sampled.intervals");
        if (intervals < minIntervals)
            return std::to_string(intervals) + " sampled intervals";
        budget = config.measureInsts / config.sampling.periodInsts *
                 config.sampling.detailedInsts;
    }
    if (r.committed() < budget)
        return "committed " + std::to_string(r.committed()) + " of " +
               std::to_string(budget);
    return {};
}

bool
sameRecord(const vpr::MetricsRecord &a, const vpr::MetricsRecord &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const vpr::Metric &x = a.all()[i];
        const vpr::Metric &y = b.all()[i];
        if (x.nameSym != y.nameSym || x.descSym != y.descSym ||
            x.kind != y.kind || x.uval != y.uval ||
            std::memcmp(&x.rval, &y.rval, sizeof(double)) != 0)
            return false;
    }
    return true;
}

void
MetricDigest::add(const std::string &text)
{
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    h ^= 0xff;  // field separator
    h *= 0x100000001b3ull;
}

void
MetricDigest::addRecord(const std::string &benchmark,
                        const vpr::SimResults &r)
{
    add(benchmark);
    for (const vpr::Metric &m : r.metrics.all())
        add(m.name() + "=" + m.text());
}

void
MetricDigest::addCsv(const std::string &csv)
{
    const CsvTable t = parseCsv(csv);
    for (const auto &row : t.rows)
        for (std::size_t c = 0; c < t.header.size() && c < row.size(); ++c)
            if (t.header[c].compare(0, 4, "cfg.") != 0)
                add(t.header[c] + "=" + row[c]);
}

std::string
MetricDigest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::vector<std::string>
SweepRequest::assignments() const
{
    return {"seed=" + std::to_string(seed),
            "skip_insts=" + std::to_string(kRequestSkipInsts),
            "measure_insts=" + std::to_string(kRequestMeasureInsts),
            "core.fetch.wrong_path=stall",
            "core.cache.miss_penalty=" + std::to_string(missPenalty),
            "sim.sampling.enable=1"};
}

std::string
SweepRequest::body() const
{
    auto list = [](const std::vector<std::string> &items) {
        std::string out;
        for (const std::string &item : items)
            out += (out.empty() ? "\"" : ", \"") + item + "\"";
        return "[" + out + "]";
    };
    return "{\"target\": " + list(benchmarks) + ", \"sweep\": " +
           list({"core.rename.regfile_size=" + joinSizes(regfileSizes),
                 kSchemeAxis}) +
           ", \"set\": " + list(assignments()) + ", \"format\": \"csv\"}";
}

std::size_t
SweepRequest::cellCount() const
{
    return benchmarks.size() * regfileSizes.size() * kSchemes;
}

std::vector<vpr::GridCell>
SweepRequest::grid() const
{
    vpr::SimConfig config = vpr::paperConfig();
    for (const std::string &a : assignments())
        vpr::applyAssignment(config, a);
    const std::vector<vpr::SweepAxis> axes = {
        vpr::parseSweepAxis("core.rename.regfile_size=" +
                            joinSizes(regfileSizes)),
        vpr::parseSweepAxis(kSchemeAxis)};
    return vpr::buildSweepGrid(benchmarks, config, axes);
}

std::vector<SweepRequest>
generateRequests(std::uint64_t seed, std::uint64_t stream,
                 std::size_t count)
{
    const std::vector<std::string> names = vpr::benchmarkNames();
    const std::size_t nSizes = sizeof(kRegfileSizes) / sizeof(unsigned);
    const std::size_t nPenalties = sizeof(kMissPenalties) / sizeof(unsigned);
    vpr::Random rng(vpr::deriveSeed(vpr::deriveSeed(seed, kRequestSalt),
                                    stream + 1));
    std::vector<SweepRequest> out(count);
    for (std::size_t r = 0; r < count; ++r) {
        SweepRequest &req = out[r];
        req.seed = seed;
        // Request shapes cycle through all 12 (benchmarks, sizes) counts
        // in a fixed order, so every seed sends the same mix of small and
        // large grids; the seed picks which cells they cover.
        for (std::size_t i : pickSorted(rng, names.size(), 1 + r % 3))
            req.benchmarks.push_back(names[i]);
        for (std::size_t i : pickSorted(rng, nSizes, 1 + (r / 3) % 4))
            req.regfileSizes.push_back(kRegfileSizes[i]);
        req.missPenalty = kMissPenalties[rng.below(nPenalties)];
    }
    return out;
}

std::string
checkCsvBody(const std::string &csv, std::size_t rows)
{
    const CsvTable t = parseCsv(csv);
    if (t.rows.size() != rows)
        return std::to_string(t.rows.size()) + " rows, want " +
               std::to_string(rows);
    const auto col = std::find(t.header.begin(), t.header.end(), "core.ipc");
    if (col == t.header.end())
        return "no core.ipc column";
    const std::size_t c = static_cast<std::size_t>(col - t.header.begin());
    for (const auto &row : t.rows)
        if (c >= row.size() ||
            !ipcPlausible(std::strtod(row[c].c_str(), nullptr)))
            return "row ipc outside (0, 8]";
    return {};
}

} // namespace perfbench
