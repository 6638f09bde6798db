/**
 * @file
 * The register-pressure figure family: the data behind the paper's
 * motivation. Sweeps register-file size × rename scheme on one integer
 * and one FP benchmark and renders, per scheme, the regfile occupancy
 * and register lifetime *distributions* — decode-time allocation keeps
 * registers busy long before and after their values are live, and the
 * histograms make that waste visible in a way end-of-run averages
 * cannot.
 *
 * Everything rendered here comes straight from the exported metric
 * record (regfile.occupancy.*, rename.vp.lifetime.*), so the table
 * re-rendered by tools/merge_results from sharded CSV files is
 * byte-identical to an unsharded run.
 */

#include "figures.hh"

namespace vpr::bench
{

namespace
{

const std::vector<std::uint16_t> kSizes = {48, 64, 96};

const std::vector<RenameScheme> kSchemes = {
    RenameScheme::Conventional,
    RenameScheme::ConventionalEarlyRelease,
    RenameScheme::VPAllocAtIssue,
    RenameScheme::VPAllocAtWriteback,
};

/** One integer and one FP benchmark: the paper's two workload worlds. */
const std::vector<std::string> kBenchmarks = {"compress", "swim"};

/** Short scheme tag used as a row label. */
const char *
schemeTag(RenameScheme s)
{
    return renameSchemeName(s);
}

} // namespace

FigureDef
regPressureFigure()
{
    FigureDef def;
    def.name = "regpressure";
    def.preset = {15000, 150, 400};
    def.grid = [](const SimConfig &base) {
        std::vector<GridCell> cells;
        for (const std::string &bench : kBenchmarks) {
            for (std::uint16_t size : kSizes) {
                for (RenameScheme scheme : kSchemes) {
                    SimConfig config = base;
                    config.setPhysRegs(size);  // NRR = max = NPR - 32
                    config.setScheme(scheme);
                    cells.push_back({bench, config});
                }
            }
        }
        return cells;
    };
    def.render = [](const std::vector<GridCell> &,
                    const std::vector<SimResults> &results,
                    std::ostream &os) {
        os << "Register pressure: occupancy and lifetime distributions "
              "per rename scheme\n(regfile size sweep "
           << kSizes.front() << "/" << kSizes[1] << "/" << kSizes.back()
           << " registers per file; VP schemes at NRR = NPR-32)\n";

        auto cellAt = [&](std::size_t b, std::size_t s,
                          std::size_t sch) -> const SimResults & {
            return results[(b * kSizes.size() + s) * kSchemes.size() +
                           sch];
        };

        for (std::size_t b = 0; b < kBenchmarks.size(); ++b) {
            const bool fp = kBenchmarks[b] == "swim";
            const std::string cls = fp ? "fp" : "int";
            const std::string occ = "regfile.occupancy." + cls;
            const std::string life = "rename.vp.lifetime." + cls;

            for (std::size_t s = 0; s < kSizes.size(); ++s) {
                os << "\n";
                printTableHeader(
                    os,
                    kBenchmarks[b] + ", " + std::to_string(kSizes[s]) +
                        " regs (" + cls + " class)",
                    {"ipc", "occ.mean", "occ.sd", "life.mean",
                     "life.sd"});
                for (std::size_t c = 0; c < kSchemes.size(); ++c) {
                    const SimResults &r = cellAt(b, s, c);
                    printTableRow(os, schemeTag(kSchemes[c]),
                                  {r.ipc(), r.metrics.real(occ + ".mean"),
                                   r.metrics.real(occ + ".stddev"),
                                   r.metrics.real(life + ".mean"),
                                   r.metrics.real(life + ".stddev")},
                                  2);
                }
            }

            // Full shape at the paper's default regfile size, labelled
            // from the sweep itself. The bucket geometry comes from
            // the records (<stem>.bucket_size), never re-derived here.
            const std::size_t sMid = kSizes.size() / 2;
            const std::string regs = std::to_string(kSizes[sMid]);
            os << "\n" << kBenchmarks[b] << ": " << cls
               << " regfile occupancy histogram, " << regs
               << " regs (% of cycles)\n";
            for (std::size_t c = 0; c < kSchemes.size(); ++c) {
                os << "  " << schemeTag(kSchemes[c]) << "\n";
                printMetricHistogram(os, cellAt(b, sMid, c).metrics,
                                     occ);
            }
            os << "\n" << kBenchmarks[b] << ": " << cls
               << " register lifetime histogram, " << regs
               << " regs (% of values)\n";
            for (std::size_t c = 0; c < kSchemes.size(); ++c) {
                os << "  " << schemeTag(kSchemes[c]) << "\n";
                printMetricHistogram(os, cellAt(b, sMid, c).metrics,
                                     life);
            }
        }

        os << "\npaper reference (section 3.1): with decode-time "
              "allocation a register is busy from rename to the\n"
              "superseding commit; virtual-physical renaming shifts "
              "allocation to issue or write-back, so the\noccupancy "
              "histogram shifts left and the lifetime histogram "
              "collapses toward the value's useful life.\n";
    };
    return def;
}

} // namespace vpr::bench
