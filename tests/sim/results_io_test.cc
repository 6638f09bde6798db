/** @file Golden-file and round-trip tests for the result exporters. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/io/zio.hh"
#include "sim/results_io.hh"

#include "../support/expect_error.hh"

namespace vpr
{
namespace
{

/** A fully pinned-down cell so the golden strings cannot drift with
 *  default-config changes. */
GridCell
goldenCell()
{
    SimConfig config;
    config.setScheme(RenameScheme::VPAllocAtWriteback);
    config.core.rename.numPhysRegs = 64;
    config.core.rename.numVPRegs = 160;
    config.core.rename.nrrInt = 32;
    config.core.rename.nrrFp = 32;
    config.core.robSize = 128;
    config.core.iqSize = 128;
    config.core.lsqSize = 128;
    config.core.cache.missPenalty = 50;
    config.core.cache.numMshrs = 8;
    config.core.fetch.wrongPath = WrongPathMode::Stall;
    config.core.fetch.wrongPathMem = false;
    config.skipInsts = 1000;
    config.measureInsts = 2000;
    config.seed = 7;
    return GridCell("swim", config);
}

SimResults
goldenResult()
{
    SimResults r;
    r.metrics.setUInt("core.cycles", "cycles", 1600);
    r.metrics.setUInt("core.committed", "committed", 2000);
    r.metrics.setReal("core.ipc", "ipc", 1.25);
    return r;
}

/** The provenance columns of goldenCell(), in registry order (one
 *  cfg.<dotted name> column per parameter; jobs excluded). */
constexpr const char *kGoldenConfigColumns =
    "cfg.skip_insts,cfg.measure_insts,cfg.seed,cfg.sim.sampling.enable,"
    "cfg.sim.sampling.period_insts,cfg.sim.sampling.warmup_insts,"
    "cfg.sim.sampling.detailed_insts,cfg.sim.sampling.functional_warming,"
    "cfg.core.rename_width,"
    "cfg.core.issue_width,cfg.core.commit_width,cfg.core.rob_size,"
    "cfg.core.iq_size,cfg.core.lsq_size,cfg.core.reg_read_ports,"
    "cfg.core.reg_write_ports,cfg.core.cache_ports,cfg.core.scheme,"
    "cfg.core.invariant_checks,cfg.core.rename.phys_regs,"
    "cfg.core.rename.vp_regs,cfg.core.rename.nrr_int,"
    "cfg.core.rename.nrr_fp,cfg.core.fetch.fetch_width,"
    "cfg.core.fetch.buffer_capacity,cfg.core.fetch.bht_entries,"
    "cfg.core.fetch.redirect_delay,cfg.core.fetch.wrong_path,"
    "cfg.core.fetch.wrong_path_seed,cfg.core.fetch.wrong_path_mem,"
    "cfg.core.fu.simple_int,cfg.core.fu.complex_int,"
    "cfg.core.fu.eff_addr,cfg.core.fu.simple_fp,cfg.core.fu.fp_mul,"
    "cfg.core.fu.fp_div_sqrt,cfg.core.cache.size_bytes,"
    "cfg.core.cache.line_size,cfg.core.cache.assoc,"
    "cfg.core.cache.hit_latency,cfg.core.cache.miss_penalty,"
    "cfg.core.cache.num_mshrs,cfg.core.cache.bus_occupancy";

constexpr const char *kGoldenConfigValues =
    "1000,2000,7,0,20000,150,250,1,8,8,8,128,128,128,16,8,3,"
    "vp-writeback,0,"
    "64,160,32,32,8,16,2048,1,stall,7860237,0,3,2,3,3,2,2,16384,32,1,"
    "2,50,8,4";

std::string
goldenCsv()
{
    std::string row = std::string("swim,") + kGoldenConfigValues +
                      ",1600,2000,1.25\n";
    return "# vpr-results v1 figure=golden cells=2 shard=0/1 scale=1 "
           "cfg=a25226c9ceb8e7cd\n"
           "cell,benchmark," + std::string(kGoldenConfigColumns) +
           ",core.cycles,core.committed,core.ipc\n"
           "0," + row + "1," + row;
}

TEST(ResultsCsv, GoldenHeaderAndRowOrderAreStable)
{
    std::vector<GridCell> cells = {goldenCell(), goldenCell()};
    std::vector<SimResults> results = {goldenResult(), goldenResult()};
    std::ostringstream os;
    writeResultsCsv(os, "golden", ShardSpec{}, {0, 1}, cells, results);
    EXPECT_EQ(os.str(), goldenCsv());
}

TEST(ResultsCsv, ProvenanceColumnsIncludeSeedButNotJobs)
{
    const std::vector<std::string> &fixed = resultFixedColumns();
    EXPECT_EQ(fixed[0], "cell");
    EXPECT_EQ(fixed[1], "benchmark");
    EXPECT_NE(std::find(fixed.begin(), fixed.end(), "cfg.seed"),
              fixed.end());
    EXPECT_EQ(std::find(fixed.begin(), fixed.end(), "cfg.jobs"),
              fixed.end());
}

TEST(ResultsJson, GoldenKeyOrderIsStable)
{
    std::vector<GridCell> cells = {goldenCell()};
    std::vector<SimResults> results = {goldenResult()};
    std::ostringstream os;
    writeResultsJson(os, "golden", ShardSpec{}, {0}, cells, results);
    const std::string json = os.str();
    // Metadata, then per-record config (dotted keys, no cfg. prefix)
    // and metrics.
    EXPECT_NE(json.find("\"format\": \"vpr-results\""),
              std::string::npos);
    EXPECT_NE(json.find("\"config_digest\": \"192e10a87e605799\""),
              std::string::npos);
    EXPECT_NE(json.find("\"sim.sampling.enable\": \"0\""),
              std::string::npos);
    EXPECT_NE(json.find("\"benchmark\": \"swim\""), std::string::npos);
    EXPECT_NE(json.find("\"core.scheme\": \"vp-writeback\""),
              std::string::npos);
    EXPECT_NE(json.find("\"core.cache.miss_penalty\": \"50\""),
              std::string::npos);
    EXPECT_NE(json.find("\"seed\": \"7\""), std::string::npos);
    EXPECT_EQ(json.find("\"jobs\""), std::string::npos);
    EXPECT_NE(json.find("\"metrics\": {\"core.cycles\": 1600, "
                        "\"core.committed\": 2000, \"core.ipc\": 1.25}"),
              std::string::npos);
}

TEST(ResultsCsv, ReadInvertsWrite)
{
    std::vector<GridCell> cells = {goldenCell(), goldenCell()};
    std::vector<SimResults> results = {goldenResult(), goldenResult()};
    std::ostringstream os;
    writeResultsCsv(os, "golden", ShardSpec{}, {0, 1}, cells, results);

    std::istringstream is(os.str());
    ResultsFile file = readResultsCsv(is, "test");
    EXPECT_EQ(file.figure, "golden");
    EXPECT_EQ(file.totalCells, 2u);
    EXPECT_EQ(file.configDigest, gridConfigDigest(cells));
    ASSERT_EQ(file.rows.size(), 2u);
    EXPECT_EQ(file.rows[1].cell, 1u);

    std::vector<SimResults> back = resultsFromFile(file);
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].metrics.counter("core.cycles"), 1600u);
    EXPECT_DOUBLE_EQ(back[0].ipc(), 1.25);
    EXPECT_TRUE(back[0].metrics.sameSchema(results[0].metrics));
}

TEST(ResultsCsv, MergeOfSingleCompleteFileIsIdentity)
{
    std::vector<GridCell> cells = {goldenCell(), goldenCell()};
    std::vector<SimResults> results = {goldenResult(), goldenResult()};
    std::ostringstream os;
    writeResultsCsv(os, "golden", ShardSpec{}, {0, 1}, cells, results);

    std::istringstream is(os.str());
    ResultsFile merged = mergeResults({readResultsCsv(is, "test")});
    std::ostringstream out;
    writeMergedCsv(out, merged);
    EXPECT_EQ(out.str(), os.str());
}

TEST(ResultsCsv, MergeReordersShardsByCell)
{
    std::vector<GridCell> cells = {goldenCell(), goldenCell()};
    std::vector<SimResults> results = {goldenResult()};

    // Shard 1/2 holds cell 1, shard 0/2 holds cell 0; merge in reverse.
    std::ostringstream s1, s0;
    writeResultsCsv(s1, "golden", ShardSpec{1, 2}, {1}, cells, results);
    writeResultsCsv(s0, "golden", ShardSpec{0, 2}, {0}, cells, results);
    std::istringstream i1(s1.str()), i0(s0.str());
    ResultsFile merged = mergeResults(
        {readResultsCsv(i1, "s1"), readResultsCsv(i0, "s0")});
    ASSERT_EQ(merged.rows.size(), 2u);
    EXPECT_EQ(merged.rows[0].cell, 0u);
    EXPECT_EQ(merged.rows[1].cell, 1u);
}

/** One half-grid shard as CSV text (cell 0 of 2). */
std::string
halfShardCsv()
{
    std::vector<GridCell> cells = {goldenCell(), goldenCell()};
    std::vector<SimResults> results = {goldenResult()};
    std::ostringstream os;
    writeResultsCsv(os, "golden", ShardSpec{0, 2}, {0}, cells, results);
    return os.str();
}

void
mergeSameShardTwice(const std::string &csv)
{
    std::istringstream a(csv), b(csv);
    std::vector<ResultsFile> files;
    files.push_back(readResultsCsv(a, "a"));
    files.push_back(readResultsCsv(b, "b"));
    mergeResults(files);
}

void
mergeSingleShard(const std::string &csv)
{
    std::istringstream a(csv);
    mergeResults({readResultsCsv(a, "a")});
}

void
readMalformed()
{
    std::istringstream is("not,a,results,file\n");
    readResultsCsv(is, "bad");
}

TEST(ResultsCsv, EmptyShardDoesNotVetoTheMerge)
{
    // A shard dealt no cells (shard count > grid size) exports only the
    // fixed header; merging it with the shards that did run must work.
    std::vector<GridCell> cells = {goldenCell(), goldenCell()};
    std::vector<SimResults> results = {goldenResult(), goldenResult()};
    std::ostringstream full, empty;
    writeResultsCsv(full, "golden", ShardSpec{0, 3}, {0, 1}, cells,
                    results);
    writeResultsCsv(empty, "golden", ShardSpec{2, 3}, {}, cells, {});

    std::istringstream e(empty.str()), f(full.str());
    std::vector<ResultsFile> files;
    files.push_back(readResultsCsv(e, "empty"));  // empty shard first
    files.push_back(readResultsCsv(f, "full"));
    ResultsFile merged = mergeResults(files);
    ASSERT_EQ(merged.rows.size(), 2u);
    EXPECT_EQ(merged.header.size(),
              resultFixedColumns().size() + 3);  // metric columns kept
}

TEST(ResultsCsvDeath, ScaleMismatchIsFatal)
{
    std::string a = halfShardCsv();
    // Forge the sibling shard with a different recorded scale.
    std::string b = halfShardCsv();
    std::size_t pos = b.find("scale=");
    ASSERT_NE(pos, std::string::npos);
    b.replace(pos, std::string("scale=1").size(), "scale=2");
    std::size_t cellCol = b.rfind("\n0,");
    ASSERT_NE(cellCol, std::string::npos);
    b.replace(cellCol, 3, "\n1,");  // cover cell 1 so only scale differs
    auto mergeMismatched = [&a, &b] {
        std::istringstream ia(a);
        std::istringstream ib(b);
        std::vector<ResultsFile> files;
        files.push_back(readResultsCsv(ia, "a"));
        files.push_back(readResultsCsv(ib, "b"));
        mergeResults(files);
    };
    EXPECT_VPR_ERROR(mergeMismatched(), "instruction-scale mismatch");
}

TEST(ResultsCsvDeath, ConfigDigestMismatchIsFatal)
{
    // A sibling shard produced from a different base configuration
    // carries a different whole-grid provenance digest: the merge must
    // refuse it instead of zipping records of unrelated machines.
    std::vector<GridCell> cells = {goldenCell(), goldenCell()};
    cells[1].config.core.cache.missPenalty = 100;
    std::ostringstream os;
    writeResultsCsv(os, "golden", ShardSpec{1, 2}, {1}, cells,
                    {goldenResult()});
    std::string a = halfShardCsv();
    std::string b = os.str();
    auto mergeMismatched = [&a, &b] {
        std::istringstream ia(a), ib(b);
        std::vector<ResultsFile> files;
        files.push_back(readResultsCsv(ia, "a"));
        files.push_back(readResultsCsv(ib, "b"));
        mergeResults(files);
    };
    EXPECT_VPR_ERROR(mergeMismatched(), "config provenance disagrees");
}

TEST(ResultsCsvDeath, SamplingConfigMismatchCannotMerge)
{
    // A sibling shard run with sampling switched on measured a
    // statistical estimate, not the same experiment: its grid digest
    // differs, so the merge must refuse to zip the two.
    std::vector<GridCell> cells = {goldenCell(), goldenCell()};
    cells[0].config.sampling.enable = true;
    cells[1].config.sampling.enable = true;
    std::ostringstream os;
    writeResultsCsv(os, "golden", ShardSpec{1, 2}, {1}, cells,
                    {goldenResult()});
    std::string a = halfShardCsv();
    std::string b = os.str();
    auto mergeMismatched = [&a, &b] {
        std::istringstream ia(a), ib(b);
        std::vector<ResultsFile> files;
        files.push_back(readResultsCsv(ia, "a"));
        files.push_back(readResultsCsv(ib, "b"));
        mergeResults(files);
    };
    EXPECT_VPR_ERROR(mergeMismatched(), "config provenance disagrees");
}

TEST(ResultsCsvDeath, SamplingParamMismatchNamesTheKey)
{
    // Row-level provenance verification pins the exact disagreeing
    // parameter: a record whose sim.sampling.enable column contradicts
    // the expected grid dies naming that dotted key.
    std::vector<GridCell> cells = {goldenCell(), goldenCell()};
    std::ostringstream os;
    writeResultsCsv(os, "golden", ShardSpec{0, 2}, {0}, cells,
                    {goldenResult()});
    std::string csv = os.str();
    // Forge the sampling.enable value in the data row: the columns run
    // ...,cfg.seed,cfg.sim.sampling.enable,... so the row reads
    // "...,2000,7,0,20000,...". Flip the 0 between seed and period.
    std::size_t pos = csv.find(",2000,7,0,20000,");
    ASSERT_NE(pos, std::string::npos);
    csv.replace(pos, std::string(",2000,7,0,20000,").size(),
                ",2000,7,1,20000,");
    auto verifyForged = [&csv, &cells] {
        std::istringstream is(csv);
        ResultsFile file = readResultsCsv(is, "forged");
        verifyCellProvenance(file, cells, "forged");
    };
    EXPECT_VPR_ERROR(verifyForged(),
                     "config provenance mismatch at cfg.sim.sampling.enable");
}

TEST(ResultsCsvDeath, DuplicateCellIsFatal)
{
    EXPECT_VPR_ERROR(mergeSameShardTwice(halfShardCsv()),
                     "more than one shard");
}

TEST(ResultsCsvDeath, IncompleteMergeIsFatal)
{
    EXPECT_VPR_ERROR(mergeSingleShard(halfShardCsv()), "incomplete merge");
}

TEST(ResultsCsvDeath, MalformedFileIsFatal)
{
    EXPECT_VPR_ERROR(readMalformed(), "vpr-results");
}

// --- reader error paths ---------------------------------------------------

void
readCsvText(const std::string &text)
{
    std::istringstream is(text);
    readResultsCsv(is, "bad");
}

TEST(ResultsCsvDeath, EmptyFileIsFatal)
{
    EXPECT_VPR_ERROR(readCsvText(""), "empty result file");
}

TEST(ResultsCsvDeath, UnsupportedVersionIsFatal)
{
    EXPECT_VPR_ERROR(
        readCsvText("# vpr-results v9 figure=f cells=1 shard=0/1\n"),
        "unsupported version");
}

TEST(ResultsCsvDeath, TruncatedAfterMetadataIsFatal)
{
    EXPECT_VPR_ERROR(readCsvText("# vpr-results v1 figure=f cells=1 "
                                 "shard=0/1 scale=1 cfg=0\n"),
                     "missing header row");
}

TEST(ResultsCsvDeath, UnknownHeaderIsFatal)
{
    // A header whose fixed columns do not match the writer's layout
    // (e.g. a hand-edited or foreign file).
    EXPECT_VPR_ERROR(
        readCsvText("# vpr-results v1 figure=f cells=1 shard=0/1 scale=1 "
                    "cfg=0\n"
                    "cell,bogus_column,core.ipc\n"),
        "unexpected header row");
}

TEST(ResultsCsvDeath, IncompleteOrRepeatedMetadataIsFatal)
{
    // Every writer emits figure=, cells=, scale= and cfg= once each. A
    // metadata line that lacks one, repeats one, or carries a label no
    // writer accepts names the file and the key, where it used to merge
    // into "figure= cells=54 ..." or a "grid has 0 cells" complaint.
    const std::string csv = halfShardCsv();
    const std::string meta = csv.substr(0, csv.find('\n'));
    ASSERT_EQ(meta.find("# vpr-results v1 figure=golden cells=2 shard=0/2 "
                        "scale="),
              0u)
        << meta;
    auto damaged = [&csv](const std::string &from, const std::string &to) {
        std::string text = csv;
        const std::size_t at = text.find(from);
        EXPECT_LT(at, text.find('\n')) << from;
        return text.replace(at, from.size(), to);
    };
    for (const char *key : {"figure", "cells", "scale", "cfg"}) {
        const std::string field = " " + std::string(key) + "=";
        const std::size_t at = meta.find(field);
        ASSERT_NE(at, std::string::npos) << key;
        const std::size_t end = meta.find(' ', at + 1);
        const std::string whole = meta.substr(
            at, end == std::string::npos ? std::string::npos : end - at);
        EXPECT_VPR_ERROR(readCsvText(damaged(whole, "")),
                         "bad: line 1: metadata key '" + std::string(key) +
                             "=' is missing")
            << key;
        EXPECT_VPR_ERROR(readCsvText(damaged(whole, whole + whole)),
                         "bad: line 1: metadata key '" + std::string(key) +
                             "=' appears twice")
            << key;
    }
    EXPECT_VPR_ERROR(
        readCsvText(damaged(" shard=0/2", " shard=0/2 shard=1/2")),
        "metadata key 'shard=' appears twice");
    for (const std::string label : {"", "a/b", "fig,7"})
        EXPECT_VPR_ERROR(
            readCsvText(damaged(" figure=golden ", " figure=" + label + " ")),
            "bad: line 1, column figure=: bad value '" + label + "'")
            << label;
}

TEST(ResultsCsvDeath, TruncatedRowIsFatal)
{
    // Chop the final field off the last data row: the column count no
    // longer matches the header.
    std::string csv = halfShardCsv();
    std::size_t lastComma = csv.rfind(',');
    ASSERT_NE(lastComma, std::string::npos);
    csv = csv.substr(0, lastComma) + "\n";
    EXPECT_VPR_ERROR(readCsvText(csv), "columns");
}

TEST(ResultsCsvDeath, CellIndexOutOfRangeIsFatal)
{
    // Forge a row claiming cell 7 of a 2-cell grid.
    std::string csv = halfShardCsv();
    std::size_t rowStart = csv.rfind("\n0,");
    ASSERT_NE(rowStart, std::string::npos);
    csv.replace(rowStart, 3, "\n7,");
    EXPECT_VPR_ERROR(readCsvText(csv), "out of range");
}

TEST(ResultsCsvDeath, FieldsThatDoNotParseWholeAreFatal)
{
    // The cells= count, the cell index and every metric value must
    // parse whole: a damaged one names the file, line and column
    // instead of merging as a number read off its prefix.
    const std::string csv = halfShardCsv();
    auto damaged = [&csv](const std::string &from, const std::string &to) {
        std::string text = csv;
        const std::size_t at = text.rfind(from);
        EXPECT_NE(at, std::string::npos) << from;
        return text.replace(at, from.size(), to);
    };
    // @p text as a pattern that matches itself.
    auto literal = [](const std::string &text) {
        std::string out;
        for (char c : text) {
            if (std::strchr("\\^$.|?*+()[]{}", c))
                out += '\\';
            out += c;
        }
        return out;
    };
    EXPECT_VPR_ERROR(readCsvText(damaged(" cells=2 ", " cells=2junk ")),
                     "bad: line 1, column cells=: bad value '2junk'");
    EXPECT_VPR_ERROR(readCsvText(damaged(" cells=2 ", " cells= ")),
                     "column cells=: bad value ''");
    for (const std::string cell : {"1x", "abc", "+1", " 1", ""})
        EXPECT_VPR_ERROR(readCsvText(damaged("\n0,", "\n" + cell + ",")),
                         "bad: line 3, column cell: bad value '" +
                             literal(cell) + "'")
            << cell;
    for (const std::string value :
         {"12.5junk", "", " 1.25", "+1.25", "1.25 ", "0x1p3", "1e400"})
        EXPECT_VPR_ERROR(
            readCsvText(damaged(",1.25\n", "," + value + "\n")),
            "bad: line 3, column core.ipc: bad value '" + literal(value) +
                "'")
            << value;
}

TEST(ResultsCsv, ReaderTakesEveryRealTheWriterWrites)
{
    // Every spelling Metric::appendText gives a real parses back to the
    // same bits, and the merged file re-emits it byte for byte.
    const double reals[] = {-0.0,
                            3.0,
                            1e-5,
                            4.9406564584124654e-324,
                            1.7976931348623157e308,
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()};
    SimResults r;
    for (std::size_t i = 0; i < std::size(reals); ++i)
        r.metrics.setReal("test.real" + std::to_string(i), "", reals[i]);
    const std::vector<GridCell> cells = {goldenCell()};
    std::ostringstream os;
    writeResultsCsv(os, "golden", ShardSpec{}, {0}, cells, {r});

    std::istringstream is(os.str());
    const ResultsFile merged = mergeResults({readResultsCsv(is, "reals")});
    std::ostringstream out;
    writeMergedCsv(out, merged);
    EXPECT_EQ(out.str(), os.str());
    const SimResults back = resultsFromFile(merged).front();
    ASSERT_EQ(back.metrics.size(), std::size(reals));
    for (std::size_t i = 0; i < std::size(reals); ++i) {
        EXPECT_EQ(back.metrics.all()[i].name(), r.metrics.all()[i].name());
        EXPECT_EQ(back.metrics.all()[i].text(), r.metrics.all()[i].text())
            << i;
    }
}

TEST(ResultsCsvDeath, MixedMetricSchemasCannotMerge)
{
    // Two shards whose records carry different metric names (e.g. one
    // produced by an older binary) must be rejected, not zipped.
    std::string a = halfShardCsv();
    std::string b = halfShardCsv();
    std::size_t pos = b.find("core.ipc");
    ASSERT_NE(pos, std::string::npos);
    b.replace(pos, std::string("core.ipc").size(), "core.wat");
    std::size_t cellCol = b.rfind("\n0,");
    ASSERT_NE(cellCol, std::string::npos);
    b.replace(cellCol, 3, "\n1,");  // cover cell 1 so only names differ
    auto mergeMixed = [&a, &b] {
        std::istringstream ia(a), ib(b);
        std::vector<ResultsFile> files;
        files.push_back(readResultsCsv(ia, "a"));
        files.push_back(readResultsCsv(ib, "b"));
        mergeResults(files);
    };
    EXPECT_VPR_ERROR(mergeMixed(), "header mismatch");
}

TEST(ResultsCsvDeath, LabelThatCouldReshapeItsFileIsAnError)
{
    // The label rides the metadata line: a space would add a key
    // ("cells=1" read back as the grid size) and a newline would split
    // the line. Every writer refuses such a label, naming the field,
    // before it writes a byte.
    const std::vector<GridCell> cells = {goldenCell()};
    const std::vector<SimResults> results = {goldenResult()};
    for (const std::string label :
         {"fig7_regfile_size cells=1", "a\nb", "", "a,b", "a=b"}) {
        std::ostringstream csv, json;
        EXPECT_VPR_ERROR(writeResultsCsv(csv, label, ShardSpec{}, {0},
                                         cells, results),
                         "figure");
        EXPECT_VPR_ERROR(writeResultsJson(json, label, ShardSpec{}, {0},
                                          cells, results),
                         "figure");
        EXPECT_TRUE(csv.str().empty() && json.str().empty()) << label;
    }
    for (const char *label : {"vpr_sim", "vpr_sim-all", "vpr_sim-sweep",
                              "vpr_simd-sweep", "golden.v2"})
        EXPECT_NO_THROW(checkResultsLabel(label)) << label;
}

TEST(ResultsCsvDeath, ShardedJsonExportIsAnError)
{
    // merge_results reads CSV and VPRZ only, so a shard written as JSON
    // could never be merged: every driver is refused, before it runs
    // (checkResultsOutput) and at the latest before it writes.
    const std::vector<GridCell> cells = {goldenCell(), goldenCell()};
    const std::vector<SimResults> results = {goldenResult()};
    const std::string dir = ::testing::TempDir();
    const std::string path = dir + "/vpr_results_shard.json";
    std::remove(path.c_str());
    EXPECT_VPR_ERROR(writeResultsFile(path, "golden", ShardSpec{0, 2}, {0},
                                      cells, results),
                     "--shard output must be CSV");
    EXPECT_FALSE(std::ifstream(path).good());
    EXPECT_VPR_ERROR(checkResultsOutput(path, "golden", ShardSpec{1, 2}),
                     "must be CSV");
    EXPECT_NO_THROW(checkResultsOutput(path, "golden", ShardSpec{}));
    EXPECT_NO_THROW(
        checkResultsOutput(dir + "/s.csv", "golden", ShardSpec{0, 2}));
    EXPECT_NO_THROW(
        checkResultsOutput(dir + "/s.vprz", "golden", ShardSpec{0, 2}));
    EXPECT_VPR_ERROR(checkResultsOutput("", "a b", ShardSpec{}), "figure");
}

TEST(ResultsCsvDeath, UnwritableOutputIsRefusedBeforeAnyCellRuns)
{
    // Drivers call checkResultsOutput before running any cell, so an
    // --out path no file can be created at fails before the grid runs,
    // in every format, instead of after it.
    const std::vector<GridCell> cells = {goldenCell()};
    const std::vector<SimResults> results = {goldenResult()};
    for (const char *path : {"/nonexistent/f.csv", "/nonexistent/f.json",
                             "/nonexistent/f.vprz"}) {
        EXPECT_VPR_ERROR(checkResultsOutput(path, "golden", ShardSpec{}),
                         "cannot open '/nonexistent/f");
        EXPECT_VPR_ERROR(writeResultsFile(path, "golden", ShardSpec{}, {0},
                                          cells, results),
                         "cannot open '/nonexistent/f");
    }

    // A directory cannot be replaced by the published file.
    namespace fs = std::filesystem;
    const std::string dir = ::testing::TempDir() + "/vpr_results_probe";
    fs::remove_all(dir);
    fs::create_directories(dir);
    EXPECT_VPR_ERROR(checkResultsOutput(dir, "golden", ShardSpec{}),
                     "cannot open");

    // The probe leaves nothing behind, the output file included.
    EXPECT_NO_THROW(
        checkResultsOutput(dir + "/f.csv", "golden", ShardSpec{}));
    EXPECT_TRUE(fs::is_empty(dir));
    fs::remove_all(dir);
}

TEST(ResultsCsv, NonRegularOutputIsWrittenThroughInPlace)
{
    // A rename would replace a device, a FIFO or a symlink with a
    // regular file, so those are written through in place; only a new
    // or regular file is published by rename.
    namespace fs = std::filesystem;
    const std::vector<GridCell> cells = {goldenCell()};
    const std::vector<SimResults> results = {goldenResult()};
    std::ostringstream expected;
    writeResultsCsv(expected, "golden", ShardSpec{}, {0}, cells, results);
    const std::string dir = ::testing::TempDir() + "/vpr_results_through";
    fs::remove_all(dir);
    fs::create_directories(dir);

    // A FIFO (as /dev/fd/N of a process substitution is a pipe): its
    // reader gets the CSV. The file fits the pipe buffer, so the read
    // end opened non-blocking here lets the write finish first.
    const std::string fifo = dir + "/fifo";
    ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
    const int rd = ::open(fifo.c_str(), O_RDONLY | O_NONBLOCK);
    ASSERT_GE(rd, 0);
    EXPECT_NO_THROW(checkResultsOutput(fifo, "golden", ShardSpec{}));
    writeResultsFile(fifo, "golden", ShardSpec{}, {0}, cells, results);
    std::string got;
    char buf[4096];
    for (ssize_t n; (n = ::read(rd, buf, sizeof buf)) > 0;)
        got.append(buf, static_cast<std::size_t>(n));
    ::close(rd);
    ASSERT_TRUE(fs::is_fifo(fs::symlink_status(fifo)));
    ASSERT_EQ(got, expected.str());

    // A symlink stays in place, and its target holds the CSV; a
    // dangling one gets its target created.
    const std::string target = dir + "/target.csv";
    const std::string link = dir + "/link.csv";
    std::ofstream(target) << "old";
    fs::create_symlink(target, link);
    for (int dangling = 0; dangling < 2; ++dangling) {
        EXPECT_NO_THROW(checkResultsOutput(link, "golden", ShardSpec{}));
        writeResultsFile(link, "golden", ShardSpec{}, {0}, cells, results);
        EXPECT_TRUE(fs::is_symlink(fs::symlink_status(link)));
        std::string written;
        ASSERT_TRUE(readFileBytes(target, written));
        EXPECT_EQ(written, expected.str());
        fs::remove(target);
    }

    // A device: /dev/null takes the CSV and stays a character device.
    EXPECT_NO_THROW(checkResultsOutput("/dev/null", "golden", ShardSpec{}));
    writeResultsFile("/dev/null", "golden", ShardSpec{}, {0}, cells,
                     results);
    EXPECT_TRUE(fs::is_character_file(fs::symlink_status("/dev/null")));

    // Nothing but the nodes made above is left in the directory.
    std::size_t entries = 0;
    for (const auto &entry : fs::directory_iterator(dir)) {
        (void)entry;
        ++entries;
    }
    EXPECT_EQ(entries, 2u);
    fs::remove_all(dir);
}

// --- distribution metrics round-trip --------------------------------------

/** A result whose record carries a full distribution (as produced by
 *  visiting a component's StatGroup). */
SimResults
distributionResult()
{
    stats::Distribution occ = stats::Distribution::evenBuckets(
        "occupancy", "busy registers per cycle", 0, 64, 16);
    for (std::uint64_t v : {3u, 7u, 7u, 12u, 40u, 64u})
        occ.sample(v);
    stats::StatGroup g("regfile");
    g.add(&occ);

    SimResults r;
    g.visit(r.metrics);
    return r;
}

TEST(ResultsCsv, DistributionMetricsRoundTripBitExact)
{
    std::vector<GridCell> cells = {goldenCell(), goldenCell()};
    std::vector<SimResults> results = {distributionResult(),
                                       distributionResult()};
    std::ostringstream os;
    writeResultsCsv(os, "dist", ShardSpec{}, {0, 1}, cells, results);

    std::istringstream is(os.str());
    ResultsFile file = readResultsCsv(is, "dist");
    std::vector<SimResults> back = resultsFromFile(file);
    ASSERT_EQ(back.size(), 2u);

    // Every metric — moments and histogram buckets — reproduces its
    // exact text form, so re-exporting is byte-identical.
    const auto &orig = results[0].metrics.all();
    const auto &rt = back[0].metrics.all();
    ASSERT_EQ(orig.size(), rt.size());
    for (std::size_t i = 0; i < orig.size(); ++i) {
        EXPECT_EQ(orig[i].name(), rt[i].name());
        EXPECT_EQ(orig[i].text(), rt[i].text()) << orig[i].name();
    }
    EXPECT_EQ(back[0].metrics.counter("regfile.occupancy.hist[1]"), 2u);
    EXPECT_EQ(back[0].metrics.counter("regfile.occupancy.samples"), 6u);
    EXPECT_DOUBLE_EQ(back[0].metrics.real("regfile.occupancy.mean"),
                     results[0].metrics.real("regfile.occupancy.mean"));
}

TEST(ResultsJson, DistributionMetricsAppearAsKeys)
{
    std::vector<GridCell> cells = {goldenCell()};
    std::vector<SimResults> results = {distributionResult()};
    std::ostringstream os;
    writeResultsJson(os, "dist", ShardSpec{}, {0}, cells, results);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"regfile.occupancy.mean\""), std::string::npos);
    EXPECT_NE(json.find("\"regfile.occupancy.stddev\""),
              std::string::npos);
    EXPECT_NE(json.find("\"regfile.occupancy.hist[15]\""),
              std::string::npos);
}

TEST(ResultsVprz, CompressedArchiveRoundTripsByteIdentically)
{
    // A .vprz results archive is the same CSV inside a compressed
    // container: reading it back must reproduce figure, header and
    // every raw row value, and merging must treat compressed and plain
    // shards interchangeably.
    std::vector<GridCell> cells = {goldenCell(), goldenCell()};
    std::vector<SimResults> results = {goldenResult(), goldenResult()};
    const std::string dir = ::testing::TempDir();
    const std::string plainPath = dir + "/vpr_results_roundtrip.csv";
    const std::string vprzPath = dir + "/vpr_results_roundtrip.vprz";
    writeResultsFile(plainPath, "golden", ShardSpec{}, {0, 1}, cells,
                     results);
    writeResultsFile(vprzPath, "golden", ShardSpec{}, {0, 1}, cells,
                     results);

    ResultsFile plain = readResultsCsvFile(plainPath);
    ResultsFile packed = readResultsCsvFile(vprzPath);
    EXPECT_EQ(packed.figure, plain.figure);
    EXPECT_EQ(packed.totalCells, plain.totalCells);
    EXPECT_EQ(packed.scale, plain.scale);
    EXPECT_EQ(packed.configDigest, plain.configDigest);
    EXPECT_EQ(packed.header, plain.header);
    ASSERT_EQ(packed.rows.size(), plain.rows.size());
    for (std::size_t i = 0; i < plain.rows.size(); ++i)
        EXPECT_EQ(packed.rows[i].values, plain.rows[i].values);

    // A merge over the compressed file equals one over the plain file.
    std::ostringstream fromPlain, fromPacked;
    writeMergedCsv(fromPlain, mergeResults({plain}));
    writeMergedCsv(fromPacked, mergeResults({packed}));
    EXPECT_EQ(fromPacked.str(), fromPlain.str());

    std::remove(plainPath.c_str());
    std::remove(vprzPath.c_str());
}

TEST(ResultsVprzDeath, CorruptedArchiveIsFatal)
{
    // Damage inside the container must be caught by the checksum and
    // reported as a read error, never parsed as CSV.
    std::vector<GridCell> cells = {goldenCell()};
    std::vector<SimResults> results = {goldenResult()};
    const std::string path =
        ::testing::TempDir() + "/vpr_results_corrupt.vprz";
    writeResultsFile(path, "golden", ShardSpec{}, {0}, cells, results);
    std::string raw;
    ASSERT_TRUE(readFileBytes(path, raw));
    raw[raw.size() / 2] ^= 0x01;
    ASSERT_TRUE(writeFileAtomic(path, raw));
    EXPECT_VPR_ERROR(readResultsCsvFile(path), "");
    std::remove(path.c_str());
}

} // namespace
} // namespace vpr
