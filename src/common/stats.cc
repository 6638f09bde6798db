#include "common/stats.hh"

#include <cmath>
#include <deque>
#include <mutex>
#include <shared_mutex>
#include <typeinfo>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.hh"

namespace vpr::stats
{

struct SymbolTable::Impl
{
    mutable std::shared_mutex mtx;
    /** id-1 -> text. A deque never moves settled elements, so the
     *  string_view keys below and the references handed out by text()
     *  stay valid as the table grows. */
    std::deque<std::string> texts;
    std::unordered_map<std::string_view, SymId> ids;
};

SymbolTable &
SymbolTable::global()
{
    static SymbolTable table;
    return table;
}

SymbolTable::Impl &
SymbolTable::impl() const
{
    static Impl theImpl;
    return theImpl;
}

SymId
SymbolTable::intern(std::string_view text)
{
    Impl &im = impl();
    {
        std::shared_lock<std::shared_mutex> lock(im.mtx);
        auto it = im.ids.find(text);
        if (it != im.ids.end())
            return it->second;
    }
    std::unique_lock<std::shared_mutex> lock(im.mtx);
    auto it = im.ids.find(text);
    if (it != im.ids.end())
        return it->second;
    im.texts.emplace_back(text);
    const SymId id = static_cast<SymId>(im.texts.size());
    im.ids.emplace(std::string_view(im.texts.back()), id);
    return id;
}

SymId
SymbolTable::find(std::string_view text) const
{
    Impl &im = impl();
    std::shared_lock<std::shared_mutex> lock(im.mtx);
    auto it = im.ids.find(text);
    return it == im.ids.end() ? 0 : it->second;
}

const std::string &
SymbolTable::text(SymId id) const
{
    Impl &im = impl();
    std::shared_lock<std::shared_mutex> lock(im.mtx);
    VPR_ASSERT(id != 0 && id <= im.texts.size(),
               "SymbolTable::text on invalid SymId ", id);
    return im.texts[id - 1];
}

std::size_t
SymbolTable::size() const
{
    Impl &im = impl();
    std::shared_lock<std::shared_mutex> lock(im.mtx);
    return im.texts.size();
}

namespace
{

/** One memoised name list: the interned full names of a stat's
 *  sub-values under one prefix. Immutable once published. */
struct NameEntry
{
    std::string prefix;
    std::string name;
    const std::type_info *type;
    std::uint64_t shape;
    std::vector<SymId> syms;
};

/** Lookup key; the views point into the caller's strings or, once
 *  stored, into the entry's own. */
struct NameKey
{
    std::string_view prefix;
    std::string_view name;
    const std::type_info *type;
    std::uint64_t shape;

    bool
    operator==(const NameKey &o) const
    {
        return prefix == o.prefix && name == o.name && *type == *o.type &&
               shape == o.shape;
    }
};

struct NameKeyHash
{
    std::size_t
    operator()(const NameKey &k) const
    {
        std::size_t h = std::hash<std::string_view>()(k.prefix);
        h = h * 31 + std::hash<std::string_view>()(k.name);
        h = h * 31 + k.type->hash_code();
        return h * 31 + static_cast<std::size_t>(k.shape);
    }
};

/**
 * The process-global name memo behind StatBase::bindNames. Locked like
 * SymbolTable (shared on the read path): grid cells bind their stats
 * from worker threads concurrently. A deque never moves settled
 * entries, so the keys' views and the pointers handed out stay valid
 * as the memo grows; nothing is ever removed.
 */
struct NameMemo
{
    std::shared_mutex mtx;
    std::deque<NameEntry> entries;
    std::unordered_map<NameKey, const NameEntry *, NameKeyHash> index;

    static NameMemo &
    global()
    {
        static NameMemo memo;
        return memo;
    }

    const NameEntry *
    find(const NameKey &key)
    {
        std::shared_lock<std::shared_mutex> lock(mtx);
        auto it = index.find(key);
        return it == index.end() ? nullptr : it->second;
    }

    /** Publish @p syms under @p key; a racing thread that published
     *  first wins (both composed the same names). */
    const NameEntry &
    insert(const NameKey &key, std::vector<SymId> syms)
    {
        std::unique_lock<std::shared_mutex> lock(mtx);
        auto it = index.find(key);
        if (it != index.end())
            return *it->second;
        entries.push_back({std::string(key.prefix), std::string(key.name),
                           key.type, key.shape, std::move(syms)});
        const NameEntry &e = entries.back();
        index.emplace(NameKey{e.prefix, e.name, e.type, e.shape}, &e);
        return e;
    }
};

} // namespace

void
StatBase::bindNames(std::string_view prefix) const
{
    const NameKey key{prefix, statName, &typeid(*this), shapeKey()};
    NameMemo &memo = NameMemo::global();
    const NameEntry *entry = memo.find(key);
    if (!entry) {
        std::vector<std::string> suffixes;
        nameSuffixes(suffixes);
        std::vector<SymId> ids;
        ids.reserve(suffixes.size());
        std::string full;
        for (const std::string &suffix : suffixes) {
            full.clear();
            if (!prefix.empty()) {
                full += prefix;
                full += '.';
            }
            full += statName;
            full += suffix;
            ids.push_back(SymbolTable::global().intern(full));
        }
        entry = &memo.insert(key, std::move(ids));
    }
    boundPrefix = entry->prefix;
    syms = entry->syms.data();
}

double
tCritical95(std::uint64_t df)
{
    // Two-sided 95% quantiles of the Student-t distribution for df
    // 1..30; beyond that the normal approximation is within 0.2%.
    static const double kT95[30] = {
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306,
        2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120,
        2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
        2.060,  2.056, 2.052, 2.048, 2.045, 2.042};
    if (df == 0)
        return 0.0;
    return df <= 30 ? kT95[df - 1] : 1.960;
}

double
SampleEstimator::stddev() const
{
    if (n < 2)
        return 0.0;
    const double m = mean();
    // Sample variance with the n-1 denominator; clamp the numerically
    // negative case (all observations equal).
    const double var =
        (sumSq - static_cast<double>(n) * m * m) /
        static_cast<double>(n - 1);
    return var > 0.0 ? std::sqrt(var) : 0.0;
}

double
SampleEstimator::standardError() const
{
    return n < 2 ? 0.0 : stddev() / std::sqrt(static_cast<double>(n));
}

double
SampleEstimator::ci95() const
{
    return n < 2 ? 0.0 : tCritical95(n - 1) * standardError();
}

void
SampleEstimator::visit(StatVisitor &v) const
{
    // The derived sub-values carry their own fixed descriptions;
    // intern those once per process.
    static const SymId stderrDesc = SymbolTable::global().intern(
        "standard error of the interval mean");
    static const SymId ci95Desc = SymbolTable::global().intern(
        "95% confidence half-width of the interval mean");
    static const SymId intervalsDesc =
        SymbolTable::global().intern("measured sampling intervals");
    const SymId *nm = names();
    v.visitReal(nm[0], descSym(), mean());
    v.visitReal(nm[1], stderrDesc, standardError());
    v.visitReal(nm[2], ci95Desc, ci95());
    v.visitUInt(nm[3], intervalsDesc, n);
}

void
SampleEstimator::nameSuffixes(std::vector<std::string> &out) const
{
    out.insert(out.end(), {".mean", ".stderr", ".ci95", ".intervals"});
}

Distribution::Distribution(std::string name, std::string desc,
                           std::uint64_t min, std::uint64_t max,
                           std::uint64_t bucketSize)
    : StatBase(std::move(name), std::move(desc)), lo(min), hi(max),
      bsize(bucketSize), bucketOf(bucketSize)
{
    VPR_ASSERT(max >= min, "distribution range inverted");
    VPR_ASSERT(bucketSize > 0, "bucket size must be positive");
    buckets.assign((max - min) / bucketSize + 1, 0);
}

Distribution
Distribution::evenBuckets(std::string name, std::string desc,
                          std::uint64_t min, std::uint64_t max,
                          std::size_t numBuckets)
{
    VPR_ASSERT(max >= min, "distribution range inverted");
    VPR_ASSERT(numBuckets > 0, "bucket count must be positive");
    const std::uint64_t range = max - min + 1;
    const std::uint64_t width = (range + numBuckets - 1) / numBuckets;
    Distribution d(std::move(name), std::move(desc), min, max, width);
    // The ceil-divided width can make the natural bucket count smaller
    // than requested; pad so the count is exactly numBuckets for any
    // range — that fixed count is what keeps export schemas identical
    // across grid cells with different structure sizes.
    d.buckets.assign(numBuckets, 0);
    return d;
}

double
Distribution::stddev() const
{
    if (n == 0)
        return 0.0;
    const double m = mean();
    const double var = sumSq / static_cast<double>(n) - m * m;
    return var > 0.0 ? std::sqrt(var) : 0.0;
}

void
Distribution::reset()
{
    under = over = n = 0;
    sum = 0.0;
    sumSq = 0.0;
    minSeen = maxSeen = 0;
    buckets.assign(buckets.size(), 0);
}

void
Distribution::visit(StatVisitor &v) const
{
    const SymId *nm = names();
    const SymId d = descSym();
    v.visitReal(nm[0], d, mean());
    v.visitReal(nm[1], d, stddev());
    v.visitUInt(nm[2], d, n);
    v.visitUInt(nm[3], d, minSeen);
    v.visitUInt(nm[4], d, maxSeen);
    v.visitUInt(nm[5], d, under);
    v.visitUInt(nm[6], d, over);
    // The bucket geometry travels with the data so consumers (figure
    // renderers, plotters) never re-derive the origin or width by hand.
    v.visitUInt(nm[7], d, lo);
    v.visitUInt(nm[8], d, bsize);
    for (std::size_t i = 0; i < buckets.size(); ++i)
        v.visitUInt(nm[9 + i], d, buckets[i]);
}

void
Distribution::nameSuffixes(std::vector<std::string> &out) const
{
    out.insert(out.end(),
               {".mean", ".stddev", ".samples", ".min", ".max",
                ".underflows", ".overflows", ".range_min", ".bucket_size"});
    for (std::size_t i = 0; i < buckets.size(); ++i)
        out.push_back(".hist[" + std::to_string(i) + "]");
}

Counter2D::Counter2D(std::string name, std::string desc,
                     std::vector<std::string> rowNames,
                     std::vector<std::string> colNames)
    : StatBase(std::move(name), std::move(desc)),
      rows(std::move(rowNames)), cols(std::move(colNames)),
      counts(rows.size() * cols.size(), 0)
{
    VPR_ASSERT(!rows.empty() && !cols.empty(),
               "Counter2D needs at least one row and one column");
}

std::uint64_t
Counter2D::rowTotal(std::size_t row) const
{
    std::uint64_t t = 0;
    for (std::size_t c = 0; c < cols.size(); ++c)
        t += count(row, c);
    return t;
}

std::uint64_t
Counter2D::colTotal(std::size_t col) const
{
    std::uint64_t t = 0;
    for (std::size_t r = 0; r < rows.size(); ++r)
        t += count(r, col);
    return t;
}

std::uint64_t
Counter2D::total() const
{
    std::uint64_t t = 0;
    for (std::uint64_t c : counts)
        t += c;
    return t;
}

void
Counter2D::reset()
{
    counts.assign(counts.size(), 0);
}

void
Counter2D::visit(StatVisitor &v) const
{
    const SymId *nm = names();
    const SymId d = descSym();
    for (std::size_t i = 0; i < counts.size(); ++i)
        v.visitUInt(nm[i], d, counts[i]);
}

void
Counter2D::nameSuffixes(std::vector<std::string> &out) const
{
    for (const std::string &row : rows)
        for (const std::string &col : cols)
            out.push_back("." + row + "." + col);
}

std::uint64_t
Counter2D::shapeKey() const
{
    // FNV-1a over the labels, each terminated by a separator byte that
    // no label contains, and the row/column boundary marked apart.
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](const std::string &label, unsigned char end) {
        for (const char ch : label)
            h = (h ^ static_cast<unsigned char>(ch)) * 0x100000001b3ull;
        h = (h ^ end) * 0x100000001b3ull;
    };
    for (const std::string &row : rows)
        mix(row, 0x1f);
    for (const std::string &col : cols)
        mix(col, 0x1e);
    return h;
}

void
StatGroup::visit(StatVisitor &v) const
{
    // Each stat binds its full names under the group prefix (composed
    // once per process, see bindNames); steady-state walks are a
    // string-free pass over the bound ids.
    for (const auto *s : statList) {
        s->setVisitPrefix(groupName);
        s->visit(v);
    }
}

void
StatGroup::resetAll()
{
    for (auto *s : statList)
        s->reset();
}

namespace
{

/**
 * Forwarding visitor that panics on a repeated full name. Groups may
 * share a prefix (two components both exporting under "core."), so a
 * leaf-name collision would otherwise be silently collapsed by
 * consumers like MetricsRecord — better to fail loudly at the source.
 */
class UniqueNameVisitor : public StatVisitor
{
  public:
    explicit UniqueNameVisitor(StatVisitor &inner) : v(inner) {}

    void
    visitUInt(SymId name, SymId desc, std::uint64_t val) override
    {
        check(name);
        v.visitUInt(name, desc, val);
    }

    void
    visitReal(SymId name, SymId desc, double val) override
    {
        check(name);
        v.visitReal(name, desc, val);
    }

  private:
    void
    check(SymId name)
    {
        VPR_ASSERT(seen.insert(name).second,
                   "duplicate stat name in tree walk: ",
                   SymbolTable::global().text(name));
    }

    StatVisitor &v;
    std::unordered_set<SymId> seen;
};

/**
 * Forwarding visitor that accumulates an order-sensitive FNV-1a hash
 * of every name symbol walked — a fingerprint of the tree's shape.
 * Interning makes equal text imply equal id, so mixing the ids is as
 * discriminating as mixing the characters; the fingerprint is
 * process-local (ids depend on interning order), which is fine for the
 * in-memory verified-schema set below.
 */
class SchemaHashVisitor : public StatVisitor
{
  public:
    explicit SchemaHashVisitor(StatVisitor &inner) : v(inner) {}

    void
    visitUInt(SymId name, SymId desc, std::uint64_t val) override
    {
        mix(name);
        v.visitUInt(name, desc, val);
    }

    void
    visitReal(SymId name, SymId desc, double val) override
    {
        mix(name);
        v.visitReal(name, desc, val);
    }

    std::uint64_t hash() const { return h; }

  private:
    void
    mix(SymId name)
    {
        for (int i = 0; i < 4; ++i)
            h = (h ^ ((name >> (8 * i)) & 0xffu)) * 0x100000001b3ull;
        h = (h ^ 0x1full) * 0x100000001b3ull; // name separator
    }

    StatVisitor &v;
    std::uint64_t h = 0xcbf29ce484222325ull;
};

/** Schema fingerprints whose name sets have passed the duplicate
 *  check. Every core built from the same config walks an identical
 *  tree, so a grid sweep (or a benchmark loop) pays the set-based
 *  check once per process, not once per core. Guarded: sweep cells
 *  run on worker threads. */
std::mutex verifiedSchemasMutex;
std::unordered_set<std::uint64_t> verifiedSchemas;

bool
schemaKnownVerified(std::uint64_t h)
{
    std::lock_guard<std::mutex> lock(verifiedSchemasMutex);
    return verifiedSchemas.count(h) != 0;
}

void
schemaMarkVerified(std::uint64_t h)
{
    std::lock_guard<std::mutex> lock(verifiedSchemasMutex);
    verifiedSchemas.insert(h);
}

} // namespace

void
StatRegistry::visit(StatVisitor &v)
{
    for (Entry &e : entryList)
        if (e.update)
            e.update();
    // Names are fixed at registration, so the duplicate check needs to
    // run once per registry, not once per walk — sampled runs visit
    // the tree every measurement interval.
    if (namesVerified) {
        for (Entry &e : entryList)
            e.group->visit(v);
        return;
    }
    // First walk of this registry: fingerprint the shape while
    // forwarding. If an identical shape was already verified in this
    // process, that's the proof — skip the per-name set.
    SchemaHashVisitor hashed(v);
    for (Entry &e : entryList)
        e.group->visit(hashed);
    if (!schemaKnownVerified(hashed.hash())) {
        // Unseen shape: re-walk into a sink with the duplicate checker
        // (the real visitor already consumed this walk's values).
        struct NullVisitor : StatVisitor
        {
            void visitUInt(SymId, SymId, std::uint64_t) override {}
            void visitReal(SymId, SymId, double) override {}
        } sink;
        UniqueNameVisitor unique(sink);
        for (Entry &e : entryList)
            e.group->visit(unique);
        schemaMarkVerified(hashed.hash());
    }
    namesVerified = true;
}

void
StatRegistry::reset()
{
    for (Entry &e : entryList) {
        if (e.reset)
            e.reset();
        else
            e.group->resetAll();
    }
}

} // namespace vpr::stats
