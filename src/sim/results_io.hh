/**
 * @file
 * Machine-readable result files for grid sweeps.
 *
 * One record per grid cell: the cell's global index, benchmark, the
 * cell's full configuration provenance, and every metric of its
 * MetricsRecord, in schema order. The provenance columns are generated
 * from the reflective parameter registry (sim/params.hh): one
 * "cfg.<dotted name>" column per parameter (seed included). How a grid
 * is run — the worker count, the result-cache directory, the shard
 * spec — is no parameter, so records are byte-identical for any --jobs
 * value, cache and sharding. Two formats:
 *
 *  - CSV: one header row, one line per cell, preceded by a single
 *    "# vpr-results v1 figure=<name> cells=<N> shard=<i>/<n>
 *    scale=<s> cfg=<digest>" metadata comment, where <digest> hashes
 *    the provenance of the *whole* grid (every cell, not just the
 *    shard's slice). This is the shard/merge interchange format:
 *    integers are written exactly and reals with 17 significant
 *    digits, so a merged file reproduces the unsharded run bit for
 *    bit, and shards produced from different base configurations can
 *    never be merged (their digests disagree).
 *  - JSON: the same records as one self-describing document (for
 *    plotting pipelines that prefer structure over columns).
 *
 * readResultsCsv/mergeResults/resultsFromFile invert the CSV writer so
 * tools/merge_results can stitch shard files back into the full
 * cell-ordered result set and re-render the paper tables;
 * verifyCellProvenance checks a file's embedded provenance against a
 * rebuilt grid, key by key.
 */

#ifndef VPR_SIM_RESULTS_IO_HH
#define VPR_SIM_RESULTS_IO_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/parallel_engine.hh"

namespace vpr
{

/** Fixed (non-metric) column names: "cell", "benchmark", then one
 *  "cfg.<dotted name>" column per provenance parameter. */
const std::vector<std::string> &resultFixedColumns();

/** The fixed-column values for one cell (everything but "cell"):
 *  benchmark, then the provenance values in column order. */
std::vector<std::string> cellConfigValues(const GridCell &cell);

/** Digest (16 hex chars) over the provenance of every cell of a grid;
 *  shards of one run share it, runs from different configurations
 *  don't. */
std::string gridConfigDigest(const std::vector<GridCell> &cells);

/** The label rule every writer enforces: a record label (the "figure"
 *  metadata field) is non-empty and uses only [A-Za-z0-9._-], so it
 *  can never split or reshape the metadata line it rides on. Throws
 *  Error naming "figure" otherwise. */
void checkResultsLabel(const std::string &figure);

/** Everything writeResultsFile checks before writing, for drivers to
 *  call before running any cell: the label rule, that a sharded export
 *  is not JSON (merge_results reads CSV and VPRZ only), and that
 *  @p path can be written (canWriteOutputFile). An empty @p path checks
 *  the label alone. Throws Error. */
void checkResultsOutput(const std::string &path, const std::string &figure,
                        const ShardSpec &shard);

/**
 * Write the records of one (possibly sharded) run: @p cells is the
 * FULL grid, @p indices the global cell indices actually run, and
 * @p results their outcomes, parallel to @p indices. CSV rows share one
 * set of metric columns, so writeResultsCsv throws Error naming
 * sim.sampling.enable for a grid that mixes sampled and detailed
 * cells. @{
 */
void writeResultsCsv(std::ostream &os, const std::string &figure,
                     const ShardSpec &shard,
                     const std::vector<std::size_t> &indices,
                     const std::vector<GridCell> &cells,
                     const std::vector<SimResults> &results);
void writeResultsJson(std::ostream &os, const std::string &figure,
                      const ShardSpec &shard,
                      const std::vector<std::size_t> &indices,
                      const std::vector<GridCell> &cells,
                      const std::vector<SimResults> &results);
/** @} */

/** Write to @p path, picking the format from the extension
 *  (".json" = JSON, ".vprz" = compressed CSV, anything else = CSV).
 *  Every format is rendered whole, then written by writeOutputFile.
 *  fatal()s if unwritable or if checkResultsOutput refuses. */
void writeResultsFile(const std::string &path, const std::string &figure,
                      const ShardSpec &shard,
                      const std::vector<std::size_t> &indices,
                      const std::vector<GridCell> &cells,
                      const std::vector<SimResults> &results);

/** Convenience for unsharded exporters (vpr_sim): write every
 *  cell of @p cells/@p results to @p path as one complete grid. */
void exportAllCells(const std::string &path, const std::string &figure,
                    const std::vector<GridCell> &cells,
                    const std::vector<SimResults> &results);

/** A parsed result file (one shard or a whole grid). Row values are
 *  kept as raw text so re-emitting them is byte-exact. */
struct ResultsFile
{
    std::string figure;
    std::size_t totalCells = 0;
    /** Instruction scale the records were produced under (raw metadata
     *  text; shards must agree exactly to merge). */
    std::string scale;
    /** Whole-grid config-provenance digest (raw metadata text; shards
     *  must agree exactly to merge). */
    std::string configDigest;
    std::vector<std::string> header;

    struct Row
    {
        std::size_t cell = 0;
        std::vector<std::string> values;  ///< header order, incl. cell
    };
    std::vector<Row> rows;
};

/** Parse a CSV result stream; @p name is used in error messages. The
 *  cells= count, every cell index and every metric value must parse
 *  whole (Error naming @p name, the line and the column). */
ResultsFile readResultsCsv(std::istream &is, const std::string &name);

/** Parse a CSV result file; fatal()s if unreadable or malformed. */
ResultsFile readResultsCsvFile(const std::string &path);

/**
 * Merge shard files into the full cell-ordered result set. All inputs
 * must agree on figure, grid size, header, instruction scale and
 * config-provenance digest; every cell must appear exactly once across
 * the inputs. fatal()s otherwise — a shard produced from a different
 * configuration can never merge silently.
 */
ResultsFile mergeResults(const std::vector<ResultsFile> &shards);

/**
 * Check the embedded config provenance of every row of @p file against
 * the expected grid (@p cells must be the full @p file.totalCells-cell
 * grid, e.g. rebuilt via the figure registry); fatal()s naming the
 * first differing dotted key. @p name labels error messages.
 */
void verifyCellProvenance(const ResultsFile &file,
                          const std::vector<GridCell> &cells,
                          const std::string &name);

/** Write a merged (complete) file back out as CSV, byte-identical to
 *  what an unsharded --out export would have produced. */
void writeMergedCsv(std::ostream &os, const ResultsFile &merged);

/** Reconstruct cell-ordered SimResults from a complete result file so
 *  figure tables can be re-rendered from merged records. */
std::vector<SimResults> resultsFromFile(const ResultsFile &file);

} // namespace vpr

#endif // VPR_SIM_RESULTS_IO_HH
