/** @file Unit tests for the conventional (R10000-style) renamer. */

#include <gtest/gtest.h>

#include "rename/conventional.hh"

namespace vpr
{
namespace
{

RenameConfig
cfg64()
{
    RenameConfig c;
    c.numPhysRegs = 64;
    return c;
}

DynInst
inst(InstSeqNum seq, StaticInst si)
{
    DynInst d;
    d.si = si;
    d.setSeq(seq);
    return d;
}

TEST(Conventional, InitialIdentityMapping)
{
    ConventionalRename rn(cfg64());
    for (std::uint16_t i = 0; i < kNumLogicalRegs; ++i) {
        EXPECT_EQ(rn.mapping(RegClass::Int, i), i);
        EXPECT_EQ(rn.mapping(RegClass::Float, i), i);
        EXPECT_TRUE(rn.isReady(RegClass::Int, i));
    }
    EXPECT_EQ(rn.freePhysRegs(RegClass::Int), 32u);
    EXPECT_EQ(rn.freePhysRegs(RegClass::Float), 32u);
}

TEST(Conventional, DestGetsFreshRegisterAtDecode)
{
    ConventionalRename rn(cfg64());
    auto d = inst(1, StaticInst::alu(RegId::intReg(5), RegId::intReg(1),
                                     RegId::intReg(2)));
    rn.renameInst(d, 1);
    EXPECT_NE(d.physReg, kNoReg);
    EXPECT_GE(d.physReg, kNumLogicalRegs);  // taken from the free pool
    EXPECT_EQ(d.wakeupTag, d.physReg);
    EXPECT_EQ(d.prevTag, 5);  // previous mapping was identity
    EXPECT_EQ(rn.mapping(RegClass::Int, 5), d.physReg);
    EXPECT_FALSE(rn.isReady(RegClass::Int, d.physReg));
    EXPECT_EQ(rn.freePhysRegs(RegClass::Int), 31u);
}

TEST(Conventional, SourcesRenameToCurrentMappings)
{
    ConventionalRename rn(cfg64());
    auto p = inst(1, StaticInst::alu(RegId::intReg(5), RegId::intReg(1),
                                     RegId::intReg(2)));
    rn.renameInst(p, 1);
    auto c = inst(2, StaticInst::alu(RegId::intReg(6), RegId::intReg(5),
                                     RegId::intReg(1)));
    rn.renameInst(c, 1);
    EXPECT_EQ(c.src[0].tag, p.physReg);
    EXPECT_FALSE(c.src[0].ready);  // producer not completed
    EXPECT_EQ(c.src[1].tag, 1);    // architected value
    EXPECT_TRUE(c.src[1].ready);
}

TEST(Conventional, SelfOverwriteReadsOldMapping)
{
    // add r1, r1, r2: the source must see the *old* mapping of r1.
    ConventionalRename rn(cfg64());
    auto d = inst(1, StaticInst::alu(RegId::intReg(1), RegId::intReg(1),
                                     RegId::intReg(2)));
    rn.renameInst(d, 1);
    EXPECT_EQ(d.src[0].tag, 1);
    EXPECT_NE(d.physReg, 1);
}

TEST(Conventional, CompleteSetsScoreboard)
{
    ConventionalRename rn(cfg64());
    auto d = inst(1, StaticInst::fpAdd(RegId::fpReg(3), RegId::fpReg(1),
                                       RegId::fpReg(2)));
    rn.renameInst(d, 1);
    auto res = rn.complete(d, 5);
    EXPECT_TRUE(res.ok);
    EXPECT_TRUE(rn.isReady(RegClass::Float, d.physReg));
}

TEST(Conventional, CommitFreesPreviousMapping)
{
    ConventionalRename rn(cfg64());
    auto d = inst(1, StaticInst::alu(RegId::intReg(5), RegId::intReg(1),
                                     RegId::intReg(2)));
    rn.renameInst(d, 1);
    rn.complete(d, 3);
    std::size_t freeBefore = rn.freePhysRegs(RegClass::Int);
    rn.commitInst(d, 4);
    // The *previous* physical register of r5 (arch reg 5) is freed.
    EXPECT_EQ(rn.freePhysRegs(RegClass::Int), freeBefore + 1);
    // New mapping still in place.
    EXPECT_EQ(rn.mapping(RegClass::Int, 5), d.physReg);
}

TEST(Conventional, SquashRestoresMappingAndFreesOwnRegister)
{
    ConventionalRename rn(cfg64());
    auto d = inst(1, StaticInst::alu(RegId::intReg(5), RegId::intReg(1),
                                     RegId::intReg(2)));
    rn.renameInst(d, 1);
    PhysRegId allocated = d.physReg;
    rn.squashInst(d, 2);
    EXPECT_EQ(rn.mapping(RegClass::Int, 5), 5);
    EXPECT_EQ(rn.freePhysRegs(RegClass::Int), 32u);
    EXPECT_EQ(d.physReg, kNoReg);
    EXPECT_FALSE(rn.isReady(RegClass::Int, allocated));
}

TEST(Conventional, CanRenameTracksFreeLists)
{
    ConventionalRename rn(cfg64());
    EXPECT_TRUE(rn.canRename(32, 32));
    EXPECT_FALSE(rn.canRename(33, 0));
    // Exhaust the integer pool.
    std::vector<DynInst> insts;
    insts.reserve(32);
    for (InstSeqNum i = 0; i < 32; ++i) {
        insts.push_back(inst(i + 1,
                             StaticInst::alu(RegId::intReg(i % 30),
                                             RegId::intReg(1),
                                             RegId::intReg(2))));
        rn.renameInst(insts.back(), 1);
    }
    EXPECT_FALSE(rn.canRename(1, 0));
    EXPECT_TRUE(rn.canRename(0, 1));  // FP pool untouched
}

TEST(Conventional, TryIssueNeverBlocks)
{
    ConventionalRename rn(cfg64());
    auto d = inst(1, StaticInst::alu(RegId::intReg(5), RegId::intReg(1),
                                     RegId::intReg(2)));
    rn.renameInst(d, 1);
    EXPECT_TRUE(rn.tryIssue(d, 2));
}

TEST(Conventional, RegisterPressureAccounting)
{
    ConventionalRename rn(cfg64());
    // 32 architected registers are live from cycle 0.
    EXPECT_EQ(rn.pressure(RegClass::Int).busy(), 32u);
    auto d = inst(1, StaticInst::alu(RegId::intReg(5), RegId::intReg(1),
                                     RegId::intReg(2)));
    rn.renameInst(d, 10);
    EXPECT_EQ(rn.pressure(RegClass::Int).busy(), 33u);
    rn.complete(d, 15);
    rn.commitInst(d, 20);  // frees prev mapping held since cycle 0
    EXPECT_EQ(rn.pressure(RegClass::Int).busy(), 32u);
    EXPECT_EQ(rn.lifetimeStat(RegClass::Int).samples(), 1u);
    EXPECT_DOUBLE_EQ(rn.lifetimeStat(RegClass::Int).mean(), 20.0);
}

TEST(Conventional, InvariantsHoldThroughRandomishSequence)
{
    ConventionalRename rn(cfg64());
    std::vector<DynInst> live;
    InstSeqNum seq = 0;
    for (int round = 0; round < 50; ++round) {
        ++seq;
        auto d = inst(seq,
                      StaticInst::alu(RegId::intReg(seq % 32),
                                      RegId::intReg((seq + 1) % 32),
                                      RegId::intReg((seq + 2) % 32)));
        rn.renameInst(d, round);
        rn.complete(d, round);
        live.push_back(d);
        if (live.size() > 8) {
            rn.commitInst(live.front(), round);
            live.erase(live.begin());
        }
        rn.checkInvariants();
    }
}

TEST(ConventionalDeath, TooFewPhysRegsPanics)
{
    RenameConfig c;
    c.numPhysRegs = 32;  // == logical: no rename registers at all
    EXPECT_DEATH(ConventionalRename{c}, "more physical than logical");
}

} // namespace
} // namespace vpr
