#include "sim/sweep.hh"

#include <unordered_set>

#include "common/logging.hh"
#include "sim/params.hh"

namespace vpr
{

SweepAxis
parseSweepAxis(const std::string &spec)
{
    std::size_t eq = spec.find('=');
    if (eq == std::string::npos || eq == 0)
        VPR_FATAL("bad sweep spec '", spec,
                  "' (expected key=v1,v2,...)");
    SweepAxis axis;
    axis.key = spec.substr(0, eq);
    std::size_t start = eq + 1;
    for (;;) {
        std::size_t comma = spec.find(',', start);
        std::string value = spec.substr(
            start, comma == std::string::npos ? comma : comma - start);
        if (value.empty())
            VPR_FATAL("bad sweep spec '", spec, "' (empty value)");
        axis.values.push_back(std::move(value));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return axis;
}

std::vector<GridCell>
buildSweepGrid(const std::vector<std::string> &benchmarks,
               const SimConfig &base, const std::vector<SweepAxis> &axes)
{
    for (const SweepAxis &axis : axes)
        VPR_ASSERT(!axis.values.empty(), "sweep axis '", axis.key,
                   "' has no values");

    // One registry for the whole grid, bound to a scratch config that
    // each cell resets to the base: its accessor closures capture the
    // scratch's fields, so they need no rebinding (configProvenance
    // does the same).
    SimConfig scratch = base;
    ConfigRegistry registry(scratch);

    // Every cell must be distinct. A benchmark named twice or a value
    // repeated on an axis would run a cell twice, and a key on two axes
    // would let the later axis silently overwrite the earlier one.
    // Values compare as the registry spells them back, so an alias
    // ("conv") repeats its canonical name ("conventional").
    std::unordered_set<std::string> seen;
    for (const std::string &bench : benchmarks)
        if (!seen.insert(bench).second)
            VPR_FATAL("benchmark '", bench, "' named twice in the sweep");
    seen.clear();
    for (const SweepAxis &axis : axes)
        if (!seen.insert(axis.key).second)
            VPR_FATAL("sweep key '", axis.key, "' on two axes");
    for (const SweepAxis &axis : axes) {
        seen.clear();
        for (const std::string &value : axis.values) {
            registry.set(axis.key, value);
            if (!seen.insert(registry.get(axis.key)).second)
                VPR_FATAL("sweep axis '", axis.key, "' repeats value '",
                          value, "'");
        }
    }

    std::vector<GridCell> cells;
    std::vector<std::size_t> pick(axes.size(), 0);
    for (const std::string &bench : benchmarks) {
        for (;;) {
            scratch = base;
            for (std::size_t a = 0; a < axes.size(); ++a)
                registry.set(axes[a].key, axes[a].values[pick[a]]);
            cells.emplace_back(bench, scratch);

            // Odometer step, rightmost axis fastest; a carry off the
            // left end means the benchmark's combinations are done
            // (and pick is back at all zeroes for the next one).
            bool carry = true;
            for (std::size_t a = axes.size(); carry && a > 0;) {
                --a;
                if (++pick[a] < axes[a].values.size())
                    carry = false;
                else
                    pick[a] = 0;
            }
            if (carry)
                break;
        }
    }
    return cells;
}

} // namespace vpr
