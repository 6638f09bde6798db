/**
 * @file
 * Lightweight statistics package (a miniature of gem5's Stats).
 *
 * Stats are plain accumulators registered with a StatGroup so that whole
 * subsystems can be dumped or reset uniformly. No global registry: each
 * simulator instance owns its groups, keeping runs independent. A
 * StatRegistry ties the groups of one core into a single stats tree:
 * components register their group (plus optional update/reset hooks)
 * and every exporter reaches them through one walk.
 *
 * Names are *interned*: every dotted stat name ("rob.occupancy.mean")
 * and description is entered once into the process-global SymbolTable
 * and carried as a SymId (u32) through the StatVisitor interface, so a
 * steady-state tree walk moves integers, not strings. The composed
 * names of each stat are memoised process-wide too, so even a freshly
 * constructed core's first walk builds no strings once any core of
 * the same shape has been walked. Text is resolved only at
 * serialization boundaries (CSV/JSON writers, reports).
 */

#ifndef VPR_COMMON_STATS_HH
#define VPR_COMMON_STATS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace vpr::stats
{

/** Interned-name handle: index into the process-global SymbolTable.
 *  0 is "no symbol" and is never returned by intern(). */
using SymId = std::uint32_t;

/**
 * The process-global intern table for stat/metric names and
 * descriptions. Names are immutable once interned and never removed, so
 * a SymId is valid for the life of the process and equal text implies
 * equal id — schema comparisons are integer compares. Thread-safe: grid
 * cells intern from worker threads concurrently.
 */
class SymbolTable
{
  public:
    static SymbolTable &global();

    /** Intern @p text, returning its (possibly pre-existing) id. */
    SymId intern(std::string_view text);

    /** Id of @p text if already interned, 0 otherwise. Never inserts,
     *  so read-only lookups cannot grow the table. */
    SymId find(std::string_view text) const;

    /** The interned text; the reference is stable for the process
     *  lifetime. @p id must come from intern()/find(). */
    const std::string &text(SymId id) const;

    /** Number of interned symbols (diagnostics). */
    std::size_t size() const;

  private:
    SymbolTable() = default;

    struct Impl;
    Impl &impl() const;
};

/**
 * Visitor over the (name, desc, typed value) triples a statistic
 * exposes; every export goes through it. A multi-valued stat (e.g. Distribution) visits one triple per
 * sub-value, suffixing its name. Names and descriptions arrive as
 * interned SymIds; resolve with SymbolTable::global().text() only where
 * text is genuinely needed.
 */
class StatVisitor
{
  public:
    virtual ~StatVisitor() = default;

    /** An integral counter/gauge value. */
    virtual void visitUInt(SymId name, SymId desc, std::uint64_t v) = 0;
    /** A real-valued mean/rate/ratio. */
    virtual void visitReal(SymId name, SymId desc, double v) = 0;
};

/** Base class for every statistic. */
class StatBase
{
  public:
    StatBase(std::string name, std::string desc)
        : statName(std::move(name)), statDesc(std::move(desc))
    {}
    virtual ~StatBase() = default;

    const std::string &name() const { return statName; }
    const std::string &desc() const { return statDesc; }

    /** Reset the accumulator to its initial state. */
    virtual void reset() = 0;
    /** Enumerate the stat's values into @p v. */
    virtual void visit(StatVisitor &v) const = 0;

    /**
     * Select the dotted prefix under which the next visit() composes
     * its names ("<prefix>.<name><suffix>"; empty = unprefixed).
     * Called by StatGroup::visit before every walk; a no-op string
     * compare when unchanged, so steady-state visits intern nothing.
     */
    void
    setVisitPrefix(std::string_view prefix) const
    {
        if (!syms || prefix != boundPrefix)
            bindNames(prefix);
    }

  protected:
    /**
     * The interned full name of every sub-value, indexed in the order
     * nameSuffixes() lists them, composed under the current visit
     * prefix (unprefixed until one is set).
     */
    const SymId *
    names() const
    {
        if (!syms)
            bindNames({});
        return syms;
    }

    /**
     * Append the name suffix of every sub-value, in visit order (""
     * names the stat itself). The list is a function of the stat's
     * type and shapeKey() alone.
     */
    virtual void
    nameSuffixes(std::vector<std::string> &out) const
    {
        out.emplace_back();
    }

    /** Distinguishes the suffix lists of two stats of the same type
     *  (a Distribution's bucket count, a Counter2D's labels). */
    virtual std::uint64_t shapeKey() const { return 0; }

    /** Interned symbol of the stat's own description. */
    SymId
    descSym() const
    {
        if (descCache == 0)
            descCache = SymbolTable::global().intern(statDesc);
        return descCache;
    }

  private:
    /**
     * Point syms at the composed names for @p prefix. They come from a
     * process-global memo keyed by (prefix, name, type, shape), so a
     * fresh core's first walk finds every name its predecessors
     * composed and only the first core of each shape builds strings.
     */
    void bindNames(std::string_view prefix) const;

    std::string statName;
    std::string statDesc;
    /** The memo entry's prefix and names; both live as long as the
     *  process. */
    mutable std::string_view boundPrefix;
    mutable const SymId *syms = nullptr;
    mutable SymId descCache = 0;
};

/** A simple monotonic counter / gauge. */
class Scalar : public StatBase
{
  public:
    using StatBase::StatBase;

    Scalar &operator++() { ++val; return *this; }
    Scalar &operator+=(std::uint64_t d) { val += d; return *this; }
    void set(std::uint64_t v) { val = v; }
    std::uint64_t value() const { return val; }

    void reset() override { val = 0; }

    void
    visit(StatVisitor &v) const override
    {
        v.visitUInt(names()[0], descSym(), val);
    }

  private:
    std::uint64_t val = 0;
};

/** A real-valued gauge for derived rates and ratios (IPC, miss rate). */
class Real : public StatBase
{
  public:
    using StatBase::StatBase;

    void set(double v) { val = v; }
    double value() const { return val; }

    void reset() override { val = 0.0; }

    void
    visit(StatVisitor &v) const override
    {
        v.visitReal(names()[0], descSym(), val);
    }

  private:
    double val = 0.0;
};

/**
 * Mean-with-confidence-interval estimator over a small number of
 * real-valued observations (one per sampled measurement interval). The
 * accumulation mirrors Distribution's running sum/sum-of-squares, but
 * the observations are reals and the derived values are the SMARTS
 * estimator outputs: sample mean, standard error of the mean, and the
 * half-width of the two-sided 95% confidence interval (Student-t for
 * small sample counts, the normal 1.96 asymptote beyond 30). With
 * fewer than two observations the spread is undefined and both stderr
 * and ci95 report 0 — consumers must check intervals before trusting
 * the error bar. Visits as .mean/.stderr/.ci95/.intervals.
 */
class SampleEstimator : public StatBase
{
  public:
    using StatBase::StatBase;

    void
    sample(double v)
    {
        ++n;
        sum += v;
        sumSq += v * v;
    }

    std::uint64_t samples() const { return n; }
    double mean() const { return n ? sum / static_cast<double>(n) : 0.0; }

    /** Sample standard deviation (n-1 denominator). */
    double stddev() const;

    /** Standard error of the mean: s / sqrt(n). */
    double standardError() const;

    /** Half-width of the two-sided 95% confidence interval. */
    double ci95() const;

    void reset() override { n = 0; sum = 0.0; sumSq = 0.0; }
    void visit(StatVisitor &v) const override;

  protected:
    void nameSuffixes(std::vector<std::string> &out) const override;

  private:
    std::uint64_t n = 0;
    double sum = 0.0;
    double sumSq = 0.0;
};

/** Two-sided 95% Student-t critical value for @p df degrees of freedom
 *  (1.96 beyond 30). Exposed for tests and external CI computations. */
double tCritical95(std::uint64_t df);

/**
 * Division by a fixed divisor without a divide instruction: the
 * quotient is the high word of x times the round-up reciprocal
 * c = ceil(2^64 / d). That is exact for every x below 2^32 and every
 * 2 <= d < 2^32, because x * (c * d - 2^64) < 2^64 (Lemire, Kaser &
 * Kurz, "Faster remainder by direct computation", 2019). Larger x, and
 * d = 1 or d >= 2^32, take the division.
 */
class ReciprocalDivider
{
  public:
    explicit ReciprocalDivider(std::uint64_t divisor)
        : d(divisor),
          c(divisor >= 2 && divisor < kExactBelow
                ? ~std::uint64_t{0} / divisor + 1
                : 0),
          limit(c ? kExactBelow : 0)
    {}

    std::uint64_t
    divide(std::uint64_t x) const
    {
        if (x < limit)
            return static_cast<std::uint64_t>(
                (static_cast<unsigned __int128>(x) * c) >> 64);
        return x / d;
    }

  private:
    static constexpr std::uint64_t kExactBelow = std::uint64_t{1} << 32;

    std::uint64_t d;
    std::uint64_t c;      ///< ceil(2^64 / d), or 0 when unused
    std::uint64_t limit;  ///< dividends below this use c
};

/**
 * Bucketed distribution over [min, max] with uniform buckets, tracking
 * mean, population standard deviation, and the observed min/max. The
 * usual producer samples once per cycle (occupancies) or once per event
 * (lifetimes). Visitation exports the moments and then one "hist[i]"
 * triple per bucket, so records carry the full shape.
 *
 * A per-cycle sampler of a bounded value (a structure's occupancy) can
 * count instead: after countValuesUpTo(cap), sampleCounted(v) only
 * bumps a per-value counter, and every read folds the counters into
 * the moments, extremes and buckets. The fold equals sampling each
 * value in turn while every partial sum stays an integer below 2^53,
 * i.e. while cap^2 times the samples since reset() stays below 2^53
 * (beyond 2^39 cycles for a 128-entry structure), because each sample
 * then adds exactly. Per-event distributions (latencies, lifetimes)
 * have no small bound and keep sample().
 *
 * For metrics exported across a parameter sweep use evenBuckets(): the
 * bucket *count* is fixed regardless of the range, which keeps the
 * export schema identical across grid cells that differ in structure
 * sizes (a requirement for sharded CSV merging).
 */
class Distribution : public StatBase
{
  public:
    Distribution(std::string name, std::string desc, std::uint64_t min,
                 std::uint64_t max, std::uint64_t bucketSize);

    /** A distribution over [min, max] with exactly @p numBuckets
     *  equal-width buckets (the last may reach past max). */
    static Distribution evenBuckets(std::string name, std::string desc,
                                    std::uint64_t min, std::uint64_t max,
                                    std::size_t numBuckets);

    /** Record one sample. Inline: the cycle loop samples every
     *  structure occupancy each cycle plus one per pipeline event, so
     *  this runs tens of millions of times per simulation. */
    void
    sample(std::uint64_t v)
    {
        if (n == 0 || v < minSeen)
            minSeen = v;
        if (n == 0 || v > maxSeen)
            maxSeen = v;
        ++n;
        const double dv = static_cast<double>(v);
        sum += dv;
        sumSq += dv * dv;
        if (v < lo) {
            ++under;
        } else if (v > hi) {
            ++over;
        } else {
            ++buckets[bucketOf.divide(v - lo)];
        }
    }

    /** Count the values 0..@p cap per value from now on (see the class
     *  comment). */
    void countValuesUpTo(std::uint64_t cap) { tally.assign(cap + 1, 0); }

    /** Record one sample of a counted distribution: values above the
     *  counted range take sample(). */
    void
    sampleCounted(std::uint64_t v)
    {
        if (v < tally.size())
            ++tally[v];
        else
            sample(v);
    }

    std::uint64_t
    bucketCount(std::size_t i) const
    {
        fold();
        return buckets.at(i);
    }
    std::size_t numBuckets() const { return buckets.size(); }
    std::uint64_t underflows() const { fold(); return under; }
    std::uint64_t overflows() const { fold(); return over; }
    std::uint64_t samples() const { fold(); return n; }
    double
    mean() const
    {
        fold();
        return n ? sum / static_cast<double>(n) : 0.0;
    }
    double stddev() const;
    std::uint64_t minSample() const { fold(); return minSeen; }
    std::uint64_t maxSample() const { fold(); return maxSeen; }

    void reset() override;
    void visit(StatVisitor &v) const override;

  protected:
    void nameSuffixes(std::vector<std::string> &out) const override;
    std::uint64_t shapeKey() const override { return buckets.size(); }

  private:
    /** Fold the per-value counts, if any, into the accumulators. */
    void
    fold() const
    {
        if (!tally.empty())
            foldTally();
    }
    void foldTally() const;

    std::uint64_t lo;
    std::uint64_t hi;
    std::uint64_t bsize;
    ReciprocalDivider bucketOf;  ///< divides by bsize
    // The accumulators are mutable so that a read can fold the counts.
    mutable std::vector<std::uint64_t> buckets;
    mutable std::uint64_t under = 0;
    mutable std::uint64_t over = 0;
    mutable std::uint64_t n = 0;
    mutable double sum = 0.0;
    mutable double sumSq = 0.0;
    mutable std::uint64_t minSeen = 0;
    mutable std::uint64_t maxSeen = 0;
    /** Samples of value v not yet folded (counted distributions). */
    mutable std::vector<std::uint64_t> tally;
};

/**
 * A labelled 2-D counter matrix (e.g. issues per op class split by
 * first execution vs re-execution). Rows and columns are fixed at
 * construction, so the visitation schema never depends on the data.
 * Each cell visits as "name.<row>.<col>".
 */
class Counter2D : public StatBase
{
  public:
    Counter2D(std::string name, std::string desc,
              std::vector<std::string> rowNames,
              std::vector<std::string> colNames);

    void
    inc(std::size_t row, std::size_t col, std::uint64_t d = 1)
    {
        counts.at(row * cols.size() + col) += d;
    }

    std::uint64_t
    count(std::size_t row, std::size_t col) const
    {
        return counts.at(row * cols.size() + col);
    }

    std::uint64_t rowTotal(std::size_t row) const;
    std::uint64_t colTotal(std::size_t col) const;
    std::uint64_t total() const;

    std::size_t numRows() const { return rows.size(); }
    std::size_t numCols() const { return cols.size(); }

    void reset() override;
    void visit(StatVisitor &v) const override;

  protected:
    void nameSuffixes(std::vector<std::string> &out) const override;
    std::uint64_t shapeKey() const override;

  private:
    std::vector<std::string> rows;
    std::vector<std::string> cols;
    std::vector<std::uint64_t> counts;  ///< row-major
};

/**
 * A named collection of statistics. Groups own no stat storage — stats
 * live as members of their subsystem and register themselves here.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : groupName(std::move(name)) {}

    void add(StatBase *stat) { statList.push_back(stat); }

    const std::string &name() const { return groupName; }
    const std::vector<StatBase *> &all() const { return statList; }

    void resetAll();

    /** Enumerate every stat in registration order, with each name
     *  prefixed "<group>." so records from different groups can share a
     *  flat namespace. */
    void visit(StatVisitor &v) const;

  private:
    std::string groupName;
    std::vector<StatBase *> statList;
};

/**
 * The stats tree of one simulated core: every component registers its
 * StatGroup(s) here, optionally with an update hook (bring derived
 * values — rates, interval deltas — up to date before a visit) and a
 * reset hook (begin a measurement interval; defaults to resetAll on the
 * group). Registration order is visitation order, which makes the
 * export schema a deterministic function of construction order alone.
 */
class StatRegistry
{
  public:
    /** One registered group with its hooks. */
    struct Entry
    {
        StatGroup *group;
        std::function<void()> update;  ///< may be empty
        std::function<void()> reset;   ///< empty = group->resetAll()
    };

    void
    add(StatGroup *group, std::function<void()> update = {},
        std::function<void()> reset = {})
    {
        entryList.push_back({group, std::move(update), std::move(reset)});
        namesVerified = false;
    }

    /** Run every update hook, then visit every group in order. */
    void visit(StatVisitor &v);

    /** Begin a measurement interval across the whole tree. */
    void reset();

    const std::vector<Entry> &entries() const { return entryList; }

  private:
    std::vector<Entry> entryList;
    /** The duplicate-name invariant has been checked by a full walk;
     *  later walks skip the per-name set insertions. Cleared when a
     *  group is added so late registration is still checked. */
    bool namesVerified = false;
};

} // namespace vpr::stats

#endif // VPR_COMMON_STATS_HH
