#include "sim/results_io.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <ostream>
#include <sstream>

#include "common/io/zio.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "sim/params.hh"

namespace vpr
{

namespace
{

/** A value placed in a CSV cell must not break the row structure. */
void
checkCsvSafe(const std::string &v)
{
    VPR_ASSERT(v.find(',') == std::string::npos &&
                   v.find('\n') == std::string::npos,
               "CSV-unsafe value '", v, "'");
}

std::vector<std::string>
splitCsvLine(const std::string &line)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    for (;;) {
        std::size_t comma = line.find(',', start);
        if (comma == std::string::npos) {
            out.push_back(line.substr(start));
            return out;
        }
        out.push_back(line.substr(start, comma - start));
        start = comma + 1;
    }
}

std::string
shardText(const ShardSpec &shard)
{
    return std::to_string(shard.index) + "/" + std::to_string(shard.count);
}

/** The effective instruction scale as round-trip-exact text. Recorded
 *  in the file metadata so shards run with different VPR_INSTS_SCALE
 *  values can never be merged into one (meaningless) result set. */
std::string
scaleText()
{
    std::ostringstream os;
    os << std::setprecision(17) << instructionScale();
    return os.str();
}

/**
 * Every exported row must carry the first row's metric columns. Sampled
 * and detailed records differ in theirs, so a grid that varies
 * sim.sampling.enable cannot be one CSV file: that is a user error.
 * Any other disagreement is a simulator bug (the engine already
 * re-simulates cells whose cached records disagree).
 */
void
checkMetricSchema(const std::vector<std::size_t> &indices,
                  const std::vector<GridCell> &cells,
                  const std::vector<SimResults> &results)
{
    for (std::size_t k = 1; k < results.size(); ++k) {
        if (results[k].metrics.sameSchema(results.front().metrics))
            continue;
        const GridCell &first = cells[indices.front()];
        const GridCell &other = cells[indices[k]];
        if (first.config.sampling.enable != other.config.sampling.enable)
            VPR_FATAL("cells ", indices.front(), " and ", indices[k],
                      " disagree on sim.sampling.enable: sampled and "
                      "detailed records have different metric columns, "
                      "so one CSV export cannot hold both (export them "
                      "separately)");
        VPR_PANIC("grid cells ", indices.front(), " and ", indices[k],
                  " disagree on the metric schema");
    }
}

/** The 16-hex-digit FNV-1a digest over every cell's provenance values
 *  (cellConfigValues), with separators, so reordered or truncated grids
 *  hash differently. */
std::string
configDigestOf(const std::vector<std::vector<std::string>> &values)
{
    // FNV-1a over each value's bytes, each followed by a separator
    // byte that no value contains.
    static constexpr unsigned char kEnd = 0xff;
    std::uint64_t h = kFnv1aBasis;
    for (const std::vector<std::string> &cell : values)
        for (const std::string &v : cell)
            h = fnv1a(&kEnd, 1, fnv1a(v, h));
    std::ostringstream os;
    os << std::hex << std::setfill('0') << std::setw(16) << h;
    return os.str();
}

void
checkWriterArgs(const std::vector<std::size_t> &indices,
                const std::vector<GridCell> &cells,
                const std::vector<SimResults> &results)
{
    VPR_ASSERT(indices.size() == results.size(),
               "indices/results size mismatch");
    for (std::size_t i : indices)
        VPR_ASSERT(i < cells.size(), "cell index ", i,
                   " outside the ", cells.size(), "-cell grid");
}

bool
hasSuffix(const std::string &path, const std::string &suffix)
{
    return path.size() >= suffix.size() &&
           path.compare(path.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

/** Parse one metric field as Metric::appendText writes it: digits
 *  alone are a counter (@p integral set), anything else must parse
 *  whole as a real. False when the text is neither. */
bool
parseMetricText(const std::string &text, bool &integral,
                std::uint64_t &count, double &real)
{
    integral = !text.empty() &&
               text.find_first_not_of("0123456789") == std::string::npos;
    if (integral)
        return parseParamU64(text, count);
    const char *end = text.data() + text.size();
    const std::from_chars_result r = std::from_chars(text.data(), end, real);
    return r.ec == std::errc() && r.ptr == end;
}

/** The Error for a result-file field that does not parse whole. */
[[noreturn]] void
badField(const std::string &name, std::size_t line,
         const std::string &column, const std::string &text,
         const char *want)
{
    VPR_FATAL(name, ": line ", line, ", column ", column, ": bad value '",
              text, "' (want ", want, ")");
}

bool
isResultsLabel(const std::string &figure)
{
    return !figure.empty() &&
           std::all_of(figure.begin(), figure.end(), [](unsigned char c) {
               return std::isalnum(c) || c == '.' || c == '_' || c == '-';
           });
}

} // namespace

void
checkResultsLabel(const std::string &figure)
{
    if (!isResultsLabel(figure))
        VPR_FATAL("bad figure label '", figure,
                  "' (want a non-empty name of [A-Za-z0-9._-])");
}

void
checkResultsOutput(const std::string &path, const std::string &figure,
                   const ShardSpec &shard)
{
    checkResultsLabel(figure);
    if (shard.active() && hasSuffix(path, ".json"))
        VPR_FATAL("--shard output must be CSV (merge_results cannot "
                  "merge JSON); drop the .json extension of '", path,
                  "'");
    if (!path.empty() && !canWriteOutputFile(path))
        VPR_FATAL("cannot open '", path, "' for writing");
}

const std::vector<std::string> &
resultFixedColumns()
{
    static const std::vector<std::string> columns = [] {
        std::vector<std::string> c = {"cell", "benchmark"};
        for (const ParamInfo &p : paramReference())
            if (!p.derived)
                c.push_back("cfg." + p.name);
        return c;
    }();
    return columns;
}

std::vector<std::string>
cellConfigValues(const GridCell &cell)
{
    std::vector<std::string> out = {cell.benchmark};
    for (const auto &[name, value] : configProvenance(cell.config)) {
        (void)name;
        out.push_back(value);
    }
    VPR_ASSERT(out.size() + 1 == resultFixedColumns().size(),
               "provenance column mismatch");
    return out;
}

std::string
gridConfigDigest(const std::vector<GridCell> &cells)
{
    std::vector<std::vector<std::string>> values;
    values.reserve(cells.size());
    for (const GridCell &cell : cells)
        values.push_back(cellConfigValues(cell));
    return configDigestOf(values);
}

void
writeResultsCsv(std::ostream &os, const std::string &figure,
                const ShardSpec &shard,
                const std::vector<std::size_t> &indices,
                const std::vector<GridCell> &cells,
                const std::vector<SimResults> &results)
{
    checkResultsLabel(figure);
    checkWriterArgs(indices, cells, results);
    checkMetricSchema(indices, cells, results);

    // Each cell's provenance is rendered once, for both the whole-grid
    // digest and the cell's row.
    std::vector<std::vector<std::string>> config;
    config.reserve(cells.size());
    for (const GridCell &cell : cells)
        config.push_back(cellConfigValues(cell));

    os << "# vpr-results v1 figure=" << figure << " cells="
       << cells.size() << " shard=" << shardText(shard) << " scale="
       << scaleText() << " cfg=" << configDigestOf(config) << "\n";

    std::string line;
    const std::vector<std::string> &fixed = resultFixedColumns();
    for (std::size_t i = 0; i < fixed.size(); ++i) {
        line += i ? "," : "";
        line += fixed[i];
    }
    if (!results.empty())
        for (const Metric &m : results.front().metrics.all()) {
            line += ',';
            line += m.name();
        }
    line += '\n';
    os << line;

    for (std::size_t k = 0; k < indices.size(); ++k) {
        line.assign(std::to_string(indices[k]));
        for (const std::string &v : config[indices[k]]) {
            checkCsvSafe(v);
            line += ',';
            line += v;
        }
        for (const Metric &m : results[k].metrics.all()) {
            line += ',';
            m.appendText(line);
        }
        line += '\n';
        os << line;
    }
}

void
writeResultsJson(std::ostream &os, const std::string &figure,
                 const ShardSpec &shard,
                 const std::vector<std::size_t> &indices,
                 const std::vector<GridCell> &cells,
                 const std::vector<SimResults> &results)
{
    checkResultsLabel(figure);
    checkWriterArgs(indices, cells, results);

    const std::vector<std::string> &fixed = resultFixedColumns();
    os << "{\n";
    os << "  \"format\": \"vpr-results\",\n";
    os << "  \"version\": 1,\n";
    os << "  \"figure\": \"" << jsonEscape(figure) << "\",\n";
    os << "  \"cells\": " << cells.size() << ",\n";
    os << "  \"shard\": \"" << shardText(shard) << "\",\n";
    os << "  \"scale\": " << scaleText() << ",\n";
    os << "  \"config_digest\": \"" << gridConfigDigest(cells) << "\",\n";
    os << "  \"records\": [";
    for (std::size_t k = 0; k < indices.size(); ++k) {
        os << (k ? ",\n" : "\n");
        os << "    {\"cell\": " << indices[k] << ", \"config\": {";
        const std::vector<std::string> config =
            cellConfigValues(cells[indices[k]]);
        for (std::size_t c = 0; c < config.size(); ++c) {
            // JSON nests the values under "config", so the dotted keys
            // drop the CSV header's "cfg." disambiguation prefix.
            std::string key = fixed[c + 1];
            if (key.compare(0, 4, "cfg.") == 0)
                key = key.substr(4);
            os << (c ? ", " : "") << "\"" << jsonEscape(key) << "\": \""
               << jsonEscape(config[c]) << "\"";
        }
        os << "}, \"metrics\": {";
        const auto &metrics = results[k].metrics.all();
        for (std::size_t m = 0; m < metrics.size(); ++m) {
            os << (m ? ", " : "")
               << "\"" << jsonEscape(metrics[m].name()) << "\": "
               << metrics[m].text();
        }
        os << "}}";
    }
    os << "\n  ]\n}\n";
}

void
writeResultsFile(const std::string &path, const std::string &figure,
                 const ShardSpec &shard,
                 const std::vector<std::size_t> &indices,
                 const std::vector<GridCell> &cells,
                 const std::vector<SimResults> &results)
{
    checkResultsOutput(path, figure, shard);
    std::ostringstream os;
    if (hasSuffix(path, ".json"))
        writeResultsJson(os, figure, shard, indices, cells, results);
    else
        writeResultsCsv(os, figure, shard, indices, cells, results);
    // ".vprz" wraps the CSV records in the compressed container
    // (common/io/zio.hh); the reader autodetects by magic bytes, so
    // merge_results ingests both forms interchangeably.
    const std::string data = hasSuffix(path, ".vprz")
                                 ? vprzPack(os.str(), "results")
                                 : os.str();
    if (!writeOutputFile(path, data))
        VPR_FATAL("error writing '", path, "'");
}

void
exportAllCells(const std::string &path, const std::string &figure,
               const std::vector<GridCell> &cells,
               const std::vector<SimResults> &results)
{
    std::vector<std::size_t> indices(cells.size());
    for (std::size_t i = 0; i < indices.size(); ++i)
        indices[i] = i;
    writeResultsFile(path, figure, ShardSpec{}, indices, cells, results);
}

ResultsFile
readResultsCsv(std::istream &is, const std::string &name)
{
    ResultsFile file;

    std::string meta;
    if (!std::getline(is, meta))
        VPR_FATAL(name, ": empty result file");
    std::istringstream metaStream(meta);
    std::string tok;
    metaStream >> tok;
    if (tok != "#")
        VPR_FATAL(name, ": missing '# vpr-results' metadata line");
    metaStream >> tok;
    if (tok != "vpr-results")
        VPR_FATAL(name, ": not a vpr-results file");
    metaStream >> tok;
    if (tok != "v1")
        VPR_FATAL(name, ": unsupported version '", tok, "'");
    // Every writer emits figure=, cells=, shard=, scale= and cfg=, each
    // once and nothing else: a line that lacks one, repeats a key or
    // carries any other token is damaged, and merging it would write
    // metadata no writer emits.
    static constexpr const char *kKeys[] = {"figure", "cells", "shard",
                                            "scale", "cfg"};
    std::vector<std::string> keys;
    while (metaStream >> tok) {
        std::size_t eq = tok.find('=');
        if (eq == std::string::npos)
            VPR_FATAL(name, ": line 1: metadata token '", tok,
                      "' is not key=value");
        std::string key = tok.substr(0, eq);
        std::string value = tok.substr(eq + 1);
        if (std::find(std::begin(kKeys), std::end(kKeys), key) ==
            std::end(kKeys))
            VPR_FATAL(name, ": line 1: unknown metadata key '", key, "='");
        if (std::find(keys.begin(), keys.end(), key) != keys.end())
            VPR_FATAL(name, ": line 1: metadata key '", key,
                      "=' appears twice");
        keys.push_back(key);
        if (key == "figure") {
            if (!isResultsLabel(value))
                badField(name, 1, "figure=", value,
                         "a non-empty name of [A-Za-z0-9._-]");
            file.figure = value;
        } else if (key == "cells") {
            std::uint64_t cells = 0;
            if (!parseParamU64(value, cells))
                badField(name, 1, "cells=", value, "a cell count");
            file.totalCells = cells;
        } else if (key == "shard") {
            // Checked only: the merge takes each row's cell index as
            // it stands.
            try {
                parseShard(value.c_str());
            } catch (const Error &) {
                badField(name, 1, "shard=", value, "i/N with 0 <= i < N");
            }
        } else if (key == "scale") {
            file.scale = value;
        } else if (key == "cfg") {
            file.configDigest = value;
        }
    }
    for (const char *required : kKeys)
        if (std::find(keys.begin(), keys.end(), required) == keys.end())
            VPR_FATAL(name, ": line 1: metadata key '", required,
                      "=' is missing");

    std::string headerLine;
    if (!std::getline(is, headerLine))
        VPR_FATAL(name, ": missing header row");
    file.header = splitCsvLine(headerLine);
    const std::vector<std::string> &fixed = resultFixedColumns();
    if (file.header.size() < fixed.size() ||
        !std::equal(fixed.begin(), fixed.end(), file.header.begin()))
        VPR_FATAL(name, ": unexpected header row (foreign file, or "
                  "records from a binary with a different parameter "
                  "registry)");

    std::string line;
    // Every field a reader interprets must parse whole: the cell index
    // and every metric value (provenance is text, checked against a
    // rebuilt grid by verifyCellProvenance).
    bool integral = false;
    std::uint64_t count = 0;
    double real = 0.0;
    for (std::size_t lineNo = 3; std::getline(is, line); ++lineNo) {
        if (line.empty())
            continue;
        ResultsFile::Row row;
        row.values = splitCsvLine(line);
        if (row.values.size() != file.header.size())
            VPR_FATAL(name, ": row has ", row.values.size(),
                      " columns, header has ", file.header.size());
        if (!parseParamU64(row.values[0], count))
            badField(name, lineNo, "cell", row.values[0], "a cell index");
        row.cell = count;
        for (std::size_t c = fixed.size(); c < row.values.size(); ++c)
            if (!parseMetricText(row.values[c], integral, count, real))
                badField(name, lineNo, file.header[c], row.values[c],
                         "a number");
        if (row.cell >= file.totalCells)
            VPR_FATAL(name, ": cell index ", row.cell,
                      " out of range (grid has ", file.totalCells,
                      " cells)");
        file.rows.push_back(std::move(row));
    }
    return file;
}

ResultsFile
readResultsCsvFile(const std::string &path)
{
    std::string data;
    if (!readFileBytes(path, data))
        VPR_FATAL("cannot open '", path, "'");
    if (guessFormat(data) == FileFormat::Vprz) {
        try {
            data = vprzUnpack(data, "results");
        } catch (const FormatError &e) {
            VPR_FATAL(path, ": ", e.what());
        }
    }
    std::istringstream is(data);
    return readResultsCsv(is, path);
}

ResultsFile
mergeResults(const std::vector<ResultsFile> &shards)
{
    if (shards.empty())
        VPR_FATAL("nothing to merge");

    ResultsFile merged;
    merged.figure = shards.front().figure;
    merged.totalCells = shards.front().totalCells;
    merged.scale = shards.front().scale;
    merged.configDigest = shards.front().configDigest;
    // The header (and with it the metric schema) comes from the first
    // shard that actually ran cells: a shard dealt an empty slice
    // (count > grid size) writes only the fixed columns and must not
    // veto the merge.
    for (const ResultsFile &shard : shards)
        if (!shard.rows.empty()) {
            merged.header = shard.header;
            break;
        }
    if (merged.header.empty())
        merged.header = shards.front().header;

    for (const ResultsFile &shard : shards) {
        if (shard.figure != merged.figure)
            VPR_FATAL("shard figure mismatch: '", shard.figure,
                      "' vs '", merged.figure, "'");
        if (shard.totalCells != merged.totalCells)
            VPR_FATAL("shard grid-size mismatch: ", shard.totalCells,
                      " vs ", merged.totalCells);
        if (shard.scale != merged.scale)
            VPR_FATAL("shard instruction-scale mismatch: '", shard.scale,
                      "' vs '", merged.scale,
                      "' — rerun every shard with the same "
                      "VPR_INSTS_SCALE");
        if (shard.configDigest != merged.configDigest)
            VPR_FATAL("shard config provenance disagrees (grid digest '",
                      shard.configDigest, "' vs '", merged.configDigest,
                      "'): the shards were produced from different "
                      "configurations — rerun every shard with "
                      "identical --set/--config parameters and the "
                      "same binary");
        if (!shard.rows.empty() && shard.header != merged.header)
            VPR_FATAL("shard header mismatch (different metric schema?)");
        for (const ResultsFile::Row &row : shard.rows)
            merged.rows.push_back(row);
    }

    std::sort(merged.rows.begin(), merged.rows.end(),
              [](const ResultsFile::Row &a, const ResultsFile::Row &b) {
                  return a.cell < b.cell;
              });
    for (std::size_t i = 0; i + 1 < merged.rows.size(); ++i)
        if (merged.rows[i].cell == merged.rows[i + 1].cell)
            VPR_FATAL("cell ", merged.rows[i].cell,
                      " appears in more than one shard");
    if (merged.rows.size() != merged.totalCells) {
        std::size_t expect = 0;
        for (const ResultsFile::Row &row : merged.rows) {
            if (row.cell != expect)
                break;
            ++expect;
        }
        VPR_FATAL("incomplete merge: have ", merged.rows.size(), " of ",
                  merged.totalCells, " cells (first missing cell ",
                  expect, ")");
    }
    return merged;
}

void
verifyCellProvenance(const ResultsFile &file,
                     const std::vector<GridCell> &cells,
                     const std::string &name)
{
    VPR_ASSERT(cells.size() == file.totalCells,
               "provenance check needs the full ", file.totalCells,
               "-cell grid, got ", cells.size(), " cells");
    const std::vector<std::string> &fixed = resultFixedColumns();
    for (const ResultsFile::Row &row : file.rows) {
        const std::vector<std::string> expect =
            cellConfigValues(cells[row.cell]);
        for (std::size_t c = 0; c < expect.size(); ++c) {
            if (row.values[c + 1] != expect[c])
                VPR_FATAL(name, ": cell ", row.cell,
                          " config provenance mismatch at ",
                          fixed[c + 1], ": record carries '",
                          row.values[c + 1], "', the grid expects '",
                          expect[c],
                          "' — the records were produced from a "
                          "different configuration (or an older "
                          "binary)");
        }
    }
}

void
writeMergedCsv(std::ostream &os, const ResultsFile &merged)
{
    os << "# vpr-results v1 figure=" << merged.figure
       << " cells=" << merged.totalCells << " shard=0/1 scale="
       << merged.scale << " cfg=" << merged.configDigest << "\n";
    for (std::size_t i = 0; i < merged.header.size(); ++i)
        os << (i ? "," : "") << merged.header[i];
    os << "\n";
    for (const ResultsFile::Row &row : merged.rows) {
        for (std::size_t i = 0; i < row.values.size(); ++i)
            os << (i ? "," : "") << row.values[i];
        os << "\n";
    }
}

std::vector<SimResults>
resultsFromFile(const ResultsFile &file)
{
    VPR_ASSERT(file.rows.size() == file.totalCells,
               "result file is incomplete; merge the shards first");
    const std::size_t fixedColumns = resultFixedColumns().size();
    std::vector<SimResults> results(file.rows.size());
    bool integral = false;
    std::uint64_t count = 0;
    double real = 0.0;
    for (std::size_t i = 0; i < file.rows.size(); ++i) {
        const ResultsFile::Row &row = file.rows[i];
        VPR_ASSERT(row.cell == i, "rows not in cell order");
        for (std::size_t c = fixedColumns; c < row.values.size(); ++c) {
            const std::string &text = row.values[c];
            if (!parseMetricText(text, integral, count, real))
                VPR_FATAL("records of figure '", file.figure, "', cell ",
                          row.cell, ", column ", file.header[c],
                          ": bad value '", text, "' (want a number)");
            if (integral)
                results[i].metrics.setUInt(file.header[c], "", count);
            else
                results[i].metrics.setReal(file.header[c], "", real);
        }
    }
    return results;
}

} // namespace vpr
