/** @file Unit tests for the LoopTrace procedural generator. */

#include <gtest/gtest.h>

#include "trace/loop_trace.hh"

namespace vpr
{
namespace
{

KernelDesc
tinyKernel()
{
    KernelDesc k;
    k.name = "tiny";
    k.seed = 7;
    MemStreamDesc s;
    s.kind = MemStreamDesc::Kind::Stride;
    s.base = 0x1000;
    s.stride = 8;
    s.region = 64;
    k.streams = {s};

    BlockDesc b;
    b.insts = {
        InstTemplate::loadFrom(0, RegId::intReg(1), RegId::intReg(2)),
        InstTemplate::compute(OpClass::IntAlu, RegId::intReg(3),
                              RegId::intReg(1), RegId::intReg(4)),
    };
    b.branch.kind = BranchDesc::Kind::Loop;
    b.branch.src = RegId::intReg(3);
    b.branch.tripCount = 4;
    b.branch.takenTarget = 0;
    b.branch.fallThrough = 0;
    k.blocks = {b};
    return k;
}

TEST(LoopTrace, EmitsBlockBodyThenBranch)
{
    LoopTraceStream s(tinyKernel());
    auto r1 = s.next();
    auto r2 = s.next();
    auto r3 = s.next();
    ASSERT_TRUE(r1 && r2 && r3);
    EXPECT_EQ(r1->op, OpClass::Load);
    EXPECT_EQ(r2->op, OpClass::IntAlu);
    EXPECT_EQ(r3->op, OpClass::Branch);
}

TEST(LoopTrace, LoopBranchTakenTripMinusOneTimes)
{
    LoopTraceStream s(tinyKernel());
    int taken = 0, notTaken = 0;
    for (int i = 0; i < 3 * 4; ++i) {
        auto r = s.next();
        ASSERT_TRUE(r);
        if (r->isBranch())
            (r->taken ? taken : notTaken)++;
    }
    // Trip count 4: taken 3 times, then not taken, repeating.
    EXPECT_EQ(taken, 3);
    EXPECT_EQ(notTaken, 1);
}

TEST(LoopTrace, StrideAddressesAdvanceAndWrap)
{
    LoopTraceStream s(tinyKernel());
    std::vector<Addr> addrs;
    while (addrs.size() < 10) {
        auto r = s.next();
        if (r->isLoad())
            addrs.push_back(r->effAddr);
    }
    for (std::size_t i = 0; i < addrs.size(); ++i)
        EXPECT_EQ(addrs[i], 0x1000u + (i * 8) % 64);
}

TEST(LoopTrace, Deterministic)
{
    LoopTraceStream a(tinyKernel()), b(tinyKernel());
    std::vector<Addr> pa, pb;
    for (int i = 0; i < 200; ++i) {
        pa.push_back(a.next()->pc);
        pb.push_back(b.next()->pc);
    }
    EXPECT_EQ(pa, pb);
}

TEST(LoopTrace, BernoulliBranchFollowsBias)
{
    KernelDesc k;
    k.name = "coin";
    k.seed = 11;
    BlockDesc b;
    b.insts = {InstTemplate::compute(OpClass::IntAlu, RegId::intReg(1),
                                     RegId::intReg(2), RegId::intReg(3))};
    b.branch.kind = BranchDesc::Kind::Bernoulli;
    b.branch.src = RegId::intReg(1);
    b.branch.takenPermille = 700;
    b.branch.takenTarget = 0;
    b.branch.fallThrough = 0;
    k.blocks = {b};

    LoopTraceStream s(k);
    int taken = 0, total = 0;
    for (int i = 0; i < 40000; ++i) {
        auto r = s.next();
        if (r->isBranch()) {
            ++total;
            taken += r->taken;
        }
    }
    double frac = static_cast<double>(taken) / total;
    EXPECT_NEAR(frac, 0.7, 0.02);
}

TEST(LoopTrace, BranchTargetsMatchBlockPcs)
{
    KernelDesc k;
    k.name = "twoblocks";
    k.seed = 3;
    BlockDesc b0, b1;
    b0.insts = {InstTemplate::compute(OpClass::IntAlu, RegId::intReg(1),
                                      RegId::intReg(2), RegId::intReg(3))};
    b0.branch.kind = BranchDesc::Kind::Loop;
    b0.branch.src = RegId::intReg(1);
    b0.branch.tripCount = 2;
    b0.branch.takenTarget = 0;
    b0.branch.fallThrough = 1;
    b1.insts = {InstTemplate::compute(OpClass::IntAlu, RegId::intReg(4),
                                      RegId::intReg(5), RegId::intReg(6))};
    b1.branch.kind = BranchDesc::Kind::None;
    k.blocks = {b0, b1};

    LoopTraceStream s(k);
    // First pass: alu, branch (taken -> block 0).
    auto alu0 = s.next();
    auto br = s.next();
    ASSERT_TRUE(br->isBranch());
    EXPECT_TRUE(br->taken);
    EXPECT_EQ(br->target, alu0->pc);
    // Second pass: alu, branch (not taken -> block 1 next).
    s.next();
    auto br2 = s.next();
    EXPECT_FALSE(br2->taken);
    auto blk1 = s.next();
    EXPECT_EQ(blk1->op, OpClass::IntAlu);
    EXPECT_EQ(blk1->pc, br2->target + 0u);  // fall-through == block 1 pc
}

TEST(LoopTrace, RandomStreamStaysInRegion)
{
    KernelDesc k;
    k.name = "rand";
    k.seed = 13;
    MemStreamDesc s;
    s.kind = MemStreamDesc::Kind::Random;
    s.base = 0x8000;
    s.region = 256;
    k.streams = {s};
    BlockDesc b;
    b.insts = {InstTemplate::loadFrom(0, RegId::intReg(1),
                                      RegId::intReg(2))};
    k.blocks = {b};

    LoopTraceStream ts(k);
    for (int i = 0; i < 1000; ++i) {
        auto r = ts.next();
        ASSERT_GE(r->effAddr, 0x8000u);
        ASSERT_LT(r->effAddr, 0x8000u + 256u);
        EXPECT_EQ(r->effAddr % 8, 0u);  // aligned to elemSize
    }
}

TEST(LoopTraceDeath, ValidateCatchesBadStreamIndex)
{
    KernelDesc k;
    k.name = "bad";
    BlockDesc b;
    b.insts = {InstTemplate::loadFrom(3, RegId::intReg(1),
                                      RegId::intReg(2))};
    k.blocks = {b};
    EXPECT_DEATH(k.validate(), "bad memory stream index");
}

TEST(LoopTraceDeath, ValidateCatchesBadTargets)
{
    KernelDesc k;
    k.name = "bad2";
    BlockDesc b;
    b.insts = {InstTemplate::compute(OpClass::IntAlu, RegId::intReg(1),
                                     RegId::intReg(2), RegId::intReg(3))};
    b.branch.kind = BranchDesc::Kind::Loop;
    b.branch.tripCount = 2;
    b.branch.takenTarget = 5;
    b.branch.fallThrough = 0;
    k.blocks = {b};
    EXPECT_DEATH(k.validate(), "bad taken target");
}

} // namespace
} // namespace vpr
