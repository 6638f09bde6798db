/**
 * @file
 * Property test: the paper's ROB-walk recovery is an exact inverse of
 * renaming. For random instruction sequences with random completions,
 * squashing the youngest k instructions must restore the renamer to a
 * state indistinguishable from the checkpoint taken before they were
 * renamed — for both schemes and both allocation policies.
 */

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "common/random.hh"
#include "rename/factory.hh"
#include "rename/conventional.hh"
#include "rename/virtual_physical.hh"

namespace vpr
{
namespace
{

/** Observable rename state used for checkpoint comparison. */
struct Observed
{
    std::vector<std::uint16_t> srcTag[kNumRegClasses];
    std::vector<bool> srcReady[kNumRegClasses];
    std::size_t freeInt;
    std::size_t freeFp;

    bool
    operator==(const Observed &o) const
    {
        for (std::size_t c = 0; c < kNumRegClasses; ++c)
            if (srcTag[c] != o.srcTag[c] || srcReady[c] != o.srcReady[c])
                return false;
        return freeInt == o.freeInt && freeFp == o.freeFp;
    }
};

/**
 * Probe the renamer by renaming "fake" readers of every logical
 * register and recording how the sources map — a behavioural snapshot
 * that does not disturb the renamer (the probe instruction has no
 * destination; store templates have no dest register).
 */
Observed
observe(RenameManager &rn)
{
    Observed o;
    for (std::size_t c = 0; c < kNumRegClasses; ++c) {
        for (std::uint16_t l = 0; l < kNumLogicalRegs; ++l) {
            RegId reg = c == 0 ? RegId::intReg(l) : RegId::fpReg(l);
            DynInst probe;
            probe.si = StaticInst::store(reg, RegId(), 0x1000);
            rn.renameInst(probe, 0);
            o.srcTag[c].push_back(probe.src[0].tag);
            o.srcReady[c].push_back(probe.src[0].ready);
        }
    }
    o.freeInt = rn.freePhysRegs(RegClass::Int);
    o.freeFp = rn.freePhysRegs(RegClass::Float);
    return o;
}

class RollbackPropertyTest
    : public ::testing::TestWithParam<std::tuple<RenameScheme,
                                                 std::uint64_t>>
{
};

TEST_P(RollbackPropertyTest, SquashIsExactInverse)
{
    auto [scheme, seed] = GetParam();
    RenameConfig rc;
    rc.numPhysRegs = 64;
    rc.numVPRegs = 160;
    rc.nrrInt = 8;
    rc.nrrFp = 8;
    auto rn = makeRenamer(scheme, rc);
    Random rng(seed);

    InstSeqNum seq = 0;
    Cycle now = 0;
    std::vector<std::unique_ptr<DynInst>> committedPath;

    // Build a random committed prefix so the state is not the reset
    // state: rename+complete+commit a few instructions.
    for (int i = 0; i < 20; ++i) {
        ++now;
        rn->tick(now);
        auto d = std::make_unique<DynInst>();
        bool fp = rng.chancePermille(500);
        std::uint16_t l = rng.below(kNumLogicalRegs);
        d->si = fp ? StaticInst::fpAdd(RegId::fpReg(l), RegId::fpReg(1),
                                       RegId::fpReg(2))
                   : StaticInst::alu(RegId::intReg(l), RegId::intReg(1),
                                     RegId::intReg(2));
        d->setSeq(++seq);
        rn->renameInst(*d, now);
        rn->tryIssue(*d, now);
        EXPECT_TRUE(rn->complete(*d, now).ok);
        rn->commitInst(*d, now);
    }
    ++now;
    rn->tick(now);

    Observed checkpoint = observe(*rn);

    // Rename a random burst; complete (and maybe issue) a random subset
    // in random legal order; never commit.
    std::vector<std::unique_ptr<DynInst>> burst;
    unsigned n = 1 + rng.below(24);
    for (unsigned i = 0; i < n; ++i) {
        auto d = std::make_unique<DynInst>();
        bool fp = rng.chancePermille(400);
        std::uint16_t l = rng.below(kNumLogicalRegs);
        d->si = fp ? StaticInst::fpMul(RegId::fpReg(l), RegId::fpReg(3),
                                       RegId::fpReg(4))
                   : StaticInst::alu(RegId::intReg(l), RegId::intReg(3),
                                     RegId::intReg(4));
        d->setSeq(++seq);
        rn->renameInst(*d, now);
        burst.push_back(std::move(d));
    }
    for (auto &d : burst) {
        if (rng.chancePermille(600)) {
            ++now;
            rn->tick(now);
            if (rn->tryIssue(*d, now)) {
                rn->complete(*d, now);
            }
        }
    }

    // Recovery walk: squash youngest-first.
    for (auto it = burst.rbegin(); it != burst.rend(); ++it) {
        ++now;
        rn->squashInst(**it, now);
    }
    rn->checkInvariants();

    Observed after = observe(*rn);
    EXPECT_TRUE(after == checkpoint)
        << "rollback did not restore rename state (scheme "
        << renameSchemeName(scheme) << ", seed " << seed << ")";
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndSeeds, RollbackPropertyTest,
    ::testing::Combine(
        ::testing::Values(RenameScheme::Conventional,
                          RenameScheme::VPAllocAtWriteback,
                          RenameScheme::VPAllocAtIssue),
        ::testing::Range<std::uint64_t>(1, 13)),
    [](const auto &info) {
        std::string s = renameSchemeName(std::get<0>(info.param));
        for (auto &ch : s)
            if (ch == '-')
                ch = '_';
        return s + "_seed" + std::to_string(std::get<1>(info.param));
    });

} // namespace
} // namespace vpr
