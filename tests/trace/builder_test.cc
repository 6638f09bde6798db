/** @file Unit tests for TraceBuilder. */

#include <gtest/gtest.h>

#include "trace/builder.hh"

namespace vpr
{
namespace
{

TEST(TraceBuilder, AssignsSequentialPcs)
{
    TraceBuilder b(0x1000);
    b.alu(RegId::intReg(1), RegId::intReg(2));
    b.nop();
    b.load(RegId::intReg(3), RegId::intReg(1), 0x100);
    auto recs = b.records();
    ASSERT_EQ(recs.size(), 3u);
    EXPECT_EQ(recs[0].pc, 0x1000u);
    EXPECT_EQ(recs[1].pc, 0x1004u);
    EXPECT_EQ(recs[2].pc, 0x1008u);
}

TEST(TraceBuilder, RepeatDuplicatesBodyKeepingPcs)
{
    TraceBuilder b;
    b.alu(RegId::intReg(1), RegId::intReg(2));
    b.mark();
    b.fpAdd(RegId::fpReg(1), RegId::fpReg(2));
    b.fpMul(RegId::fpReg(2), RegId::fpReg(1), RegId::fpReg(3));
    b.repeat(3);
    auto recs = b.records();
    // 1 prefix + 2 body * 3 repetitions.
    ASSERT_EQ(recs.size(), 7u);
    // Repeated iterations reuse the original PCs (same static insts).
    EXPECT_EQ(recs[1].pc, recs[3].pc);
    EXPECT_EQ(recs[2].pc, recs[4].pc);
    EXPECT_EQ(recs[1].op, OpClass::FpAdd);
    EXPECT_EQ(recs[5].op, OpClass::FpAdd);
}

TEST(TraceBuilder, StreamYieldsAllRecordsThenEnds)
{
    TraceBuilder b;
    b.nop().nop().nop();
    auto s = b.stream(false);
    int n = 0;
    while (s->next())
        ++n;
    EXPECT_EQ(n, 3);
    EXPECT_FALSE(s->next().has_value());
}

TEST(TraceBuilder, LoopingStreamWrapsForever)
{
    TraceBuilder b;
    b.nop().nop();
    auto s = b.stream(true);
    for (int i = 0; i < 100; ++i)
        ASSERT_TRUE(s->next().has_value());
}

TEST(TraceBuilder, AllEmittersProduceExpectedOps)
{
    TraceBuilder b;
    b.alu(RegId::intReg(1), RegId::intReg(2))
        .mult(RegId::intReg(1), RegId::intReg(2), RegId::intReg(3))
        .div(RegId::intReg(1), RegId::intReg(2), RegId::intReg(3))
        .fpAdd(RegId::fpReg(1), RegId::fpReg(2))
        .fpMul(RegId::fpReg(1), RegId::fpReg(2), RegId::fpReg(3))
        .fpDiv(RegId::fpReg(1), RegId::fpReg(2), RegId::fpReg(3))
        .fpSqrt(RegId::fpReg(1), RegId::fpReg(2))
        .load(RegId::intReg(1), RegId::intReg(2), 0x10)
        .store(RegId::intReg(1), RegId::intReg(2), 0x20)
        .branch(RegId::intReg(1), true, 0x1234)
        .nop();
    auto r = b.records();
    ASSERT_EQ(r.size(), 11u);
    EXPECT_EQ(r[0].op, OpClass::IntAlu);
    EXPECT_EQ(r[1].op, OpClass::IntMult);
    EXPECT_EQ(r[2].op, OpClass::IntDiv);
    EXPECT_EQ(r[3].op, OpClass::FpAdd);
    EXPECT_EQ(r[4].op, OpClass::FpMult);
    EXPECT_EQ(r[5].op, OpClass::FpDiv);
    EXPECT_EQ(r[6].op, OpClass::FpSqrt);
    EXPECT_EQ(r[7].op, OpClass::Load);
    EXPECT_EQ(r[8].op, OpClass::Store);
    EXPECT_EQ(r[9].op, OpClass::Branch);
    EXPECT_EQ(r[10].op, OpClass::Nop);
}

} // namespace
} // namespace vpr
