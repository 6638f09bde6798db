/** @file Unit tests for MetricsRecord and its StatGroup plumbing. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iomanip>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.hh"
#include "sim/metrics.hh"

namespace vpr
{
namespace
{

TEST(MetricsRecord, KeepsInsertionOrder)
{
    MetricsRecord m;
    m.setUInt("b.two", "", 2);
    m.setReal("a.one", "", 1.0);
    m.setUInt("c.three", "", 3);
    ASSERT_EQ(m.size(), 3u);
    EXPECT_EQ(m.all()[0].name(), "b.two");
    EXPECT_EQ(m.all()[1].name(), "a.one");
    EXPECT_EQ(m.all()[2].name(), "c.three");
}

TEST(MetricsRecord, LookupByName)
{
    MetricsRecord m;
    m.setUInt("core.cycles", "cycles", 100);
    m.setReal("core.ipc", "ipc", 1.5);
    EXPECT_TRUE(m.has("core.cycles"));
    EXPECT_FALSE(m.has("core.nope"));
    EXPECT_EQ(m.counter("core.cycles"), 100u);
    EXPECT_DOUBLE_EQ(m.real("core.ipc"), 1.5);
    // real() works on UInt metrics too; counter() truncates reals.
    EXPECT_DOUBLE_EQ(m.real("core.cycles"), 100.0);
    EXPECT_EQ(m.counter("core.ipc"), 1u);
    // Missing names read as zero.
    EXPECT_EQ(m.counter("core.nope"), 0u);
    EXPECT_DOUBLE_EQ(m.real("core.nope"), 0.0);
}

TEST(MetricsRecord, OverwriteKeepsPosition)
{
    MetricsRecord m;
    m.setUInt("x", "", 1);
    m.setUInt("y", "", 2);
    m.setReal("x", "", 9.5);
    ASSERT_EQ(m.size(), 2u);
    EXPECT_EQ(m.all()[0].name(), "x");
    EXPECT_DOUBLE_EQ(m.real("x"), 9.5);
}

TEST(MetricsRecord, SameSchemaComparesNamesAndOrder)
{
    MetricsRecord a, b, c;
    a.setUInt("one", "", 1);
    a.setUInt("two", "", 2);
    b.setUInt("one", "", 7);
    b.setUInt("two", "", 8);
    c.setUInt("two", "", 2);
    c.setUInt("one", "", 1);
    EXPECT_TRUE(a.sameSchema(b));
    EXPECT_FALSE(a.sameSchema(c));  // same names, different order
}

TEST(MetricsRecord, PopulatedByVisitingStatGroups)
{
    stats::StatGroup g("core");
    stats::Scalar cycles("cycles", "elapsed");
    cycles.set(42);
    stats::Real ipc("ipc", "rate");
    ipc.set(1.25);
    g.add(&cycles);
    g.add(&ipc);

    MetricsRecord m;
    g.visit(m);
    ASSERT_EQ(m.size(), 2u);
    EXPECT_EQ(m.counter("core.cycles"), 42u);
    EXPECT_DOUBLE_EQ(m.real("core.ipc"), 1.25);
    EXPECT_EQ(m.all()[0].desc(), "elapsed");
}

TEST(MetricsRecord, RevisitOverwritesInAnyOrder)
{
    // Sampled runs revisit one record per measurement interval; the
    // in-order revisit takes the cursor fast path, but correctness
    // must not depend on arrival order.
    MetricsRecord m;
    m.setUInt("a", "", 1);
    m.setUInt("b", "", 2);
    m.setUInt("c", "", 3);
    // In-order revisit.
    m.setUInt("a", "", 10);
    m.setUInt("b", "", 20);
    m.setUInt("c", "", 30);
    // Out-of-order revisit.
    m.setUInt("c", "", 300);
    m.setUInt("a", "", 100);
    m.setUInt("b", "", 200);
    ASSERT_EQ(m.size(), 3u);
    EXPECT_EQ(m.counter("a"), 100u);
    EXPECT_EQ(m.counter("b"), 200u);
    EXPECT_EQ(m.counter("c"), 300u);
    EXPECT_EQ(m.all()[0].name(), "a");
    EXPECT_EQ(m.all()[2].name(), "c");
}

TEST(Metric, TextRoundTripsExactly)
{
    auto &tab = stats::SymbolTable::global();
    Metric u{tab.intern("n"), tab.intern(""), Metric::Kind::UInt,
             1234567890123456789ull, 0.0};
    EXPECT_EQ(u.text(), "1234567890123456789");

    Metric r{tab.intern("r"), tab.intern(""), Metric::Kind::Real, 0, 0.0};
    r.rval = 1.0 / 3.0;
    double back = std::strtod(r.text().c_str(), nullptr);
    EXPECT_EQ(back, r.rval);  // bit-exact, not just close

    r.rval = 3.0;  // integral-valued real prints without a decimal point
    EXPECT_EQ(r.text(), "3");
}

/** What Metric::text wrote before it used to_chars, and what every
 *  exported record and golden holds. */
std::string
streamText(double v)
{
    std::ostringstream os;
    os << std::setprecision(17) << v;
    return os.str();
}

double
fromBits(std::uint64_t bits)
{
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
}

TEST(Metric, TextMatchesSetprecision17)
{
    Metric m{stats::SymbolTable::global().intern("r"), 0,
             Metric::Kind::Real, 0, 0.0};
    using L = std::numeric_limits<double>;
    const std::vector<double> special = {
        0.0, -0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, 1e16, 1e17, 123456789012345678.0,
        1e-5, 1e-4, 1e21, 1e22, L::min(), L::denorm_min(), -L::denorm_min(),
        L::max(), -L::max(), L::epsilon(), L::infinity(), -L::infinity(),
        L::quiet_NaN(), -L::quiet_NaN(), L::signaling_NaN(),
        fromBits(0x7ff8000000000123ull), fromBits(0xfff0000000000001ull),
        fromBits(0x000fffffffffffffull), fromBits(0x0000000000000001ull)};
    for (double v : special) {
        m.rval = v;
        EXPECT_EQ(m.text(), streamText(v)) << std::hexfloat << v;
    }

    // Random bit patterns cover every exponent, NaN payloads and
    // denormals alike.
    std::mt19937_64 rng(17);
    std::ostringstream os;
    os << std::setprecision(17);
    std::string text;
    int mismatches = 0;
    for (int i = 0; i < 1000000; ++i) {
        m.rval = fromBits(rng());
        os.str("");
        os << m.rval;
        text.clear();
        m.appendText(text);
        if (text != os.str() && ++mismatches <= 5)
            ADD_FAILURE() << text << " != " << os.str();
    }
    EXPECT_EQ(mismatches, 0);
}

/** The index the flat table replaced, kept here as the oracle: a map
 *  from name to position plus the values in insertion order. */
struct RecordModel
{
    std::unordered_map<stats::SymId, std::size_t> index;
    std::vector<stats::SymId> order;
    std::vector<double> values;

    void
    set(stats::SymId name, double v)
    {
        auto [it, fresh] = index.emplace(name, order.size());
        if (fresh) {
            order.push_back(name);
            values.push_back(v);
        } else {
            values[it->second] = v;
        }
    }
};

void
expectSame(const MetricsRecord &m, const RecordModel &model,
           const std::vector<std::string> &names, const char *when)
{
    ASSERT_EQ(m.size(), model.order.size()) << when;
    for (std::size_t i = 0; i < model.order.size(); ++i) {
        ASSERT_EQ(m.all()[i].nameSym, model.order[i]) << when;
        ASSERT_EQ(m.all()[i].asReal(), model.values[i]) << when;
    }
    auto &tab = stats::SymbolTable::global();
    for (const std::string &name : names) {
        const auto it = model.index.find(tab.find(name));
        ASSERT_EQ(m.has(name), it != model.index.end()) << when << name;
        ASSERT_EQ(m.real(name),
                  it == model.index.end() ? 0.0 : model.values[it->second])
            << when << name;
    }
}

TEST(MetricsRecord, FlatIndexMatchesMapModel)
{
    // Random inserts, overwrites, in-order revisits and copies against
    // the model, over a name pool big enough to force two rehashes past
    // the 2048-slot table a first insert reserves.
    auto &tab = stats::SymbolTable::global();
    std::vector<std::string> names;
    std::vector<stats::SymId> syms;
    for (int i = 0; i < 3000; ++i) {
        names.push_back("flatfuzz.m" + std::to_string(i));
        syms.push_back(tab.intern(names.back()));
    }
    names.push_back("flatfuzz.never_set");
    const stats::SymId desc = tab.intern("fuzz");

    std::mt19937_64 rng(13);
    for (int round = 0; round < 4; ++round) {
        MetricsRecord m;
        RecordModel model;
        // Rounds draw from growing prefixes of the pool, so small
        // records and multi-rehash records both occur.
        const std::size_t pool = round == 0 ? 8 : 1000u * round;
        for (int op = 0; op < 20000; ++op) {
            const std::uint64_t r = rng();
            if (r % 97 == 0 && !model.order.empty()) {
                // Revisit the whole record in schema order (the cursor
                // path), as a sampled run's interval walks do.
                for (std::size_t i = 0; i < model.order.size(); ++i) {
                    const double v = static_cast<double>(rng() % 1000);
                    m.setReal(model.order[i], desc, v);
                    model.values[i] = v;
                }
                continue;
            }
            if (r % 89 == 0) {
                MetricsRecord copy = m;
                m = copy;
            }
            const stats::SymId name = syms[(r >> 8) % pool];
            const std::uint64_t v = (r >> 32) % 1000;
            if (r & 1)
                m.setUInt(name, desc, v);
            else
                m.setReal(name, desc, static_cast<double>(v));
            model.set(name, static_cast<double>(v));
        }
        expectSame(m, model, names, "after the ops: ");
        const MetricsRecord copy = m;
        expectSame(copy, model, names, "in a copy: ");
    }
}

} // namespace
} // namespace vpr
