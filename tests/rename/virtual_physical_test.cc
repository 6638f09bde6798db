/**
 * @file
 * Unit tests for the virtual-physical renamer: GMT/PMT semantics
 * (paper section 3.2), the NRR gate (3.3) and both allocation policies
 * (3.2/3.4).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "rename/factory.hh"
#include "rename/virtual_physical.hh"

namespace vpr
{
namespace
{

RenameConfig
cfg(std::uint16_t physRegs = 64, std::uint16_t nrr = 32)
{
    RenameConfig c;
    c.numPhysRegs = physRegs;
    c.numVPRegs = 160;
    c.nrrInt = nrr;
    c.nrrFp = nrr;
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

TEST(VirtualPhysical, InitialArchitectedState)
{
    VirtualPhysicalRename rn(cfg(), false);
    for (std::uint16_t i = 0; i < kNumLogicalRegs; ++i) {
        EXPECT_EQ(rn.gmtVP(RegClass::Int, i), i);
        EXPECT_EQ(rn.gmtPhys(RegClass::Int, i), i);
        EXPECT_TRUE(rn.gmtValid(RegClass::Int, i));
        EXPECT_EQ(rn.pmtPhys(RegClass::Int, i), i);
    }
    EXPECT_EQ(rn.freePhysRegs(RegClass::Int), 32u);
    EXPECT_EQ(rn.freeVPRegs(RegClass::Int), 160u - 32u);
}

TEST(VirtualPhysical, DestGetsVPTagNotPhysicalRegister)
{
    VirtualPhysicalRename rn(cfg(), false);
    auto d = inst(1, StaticInst::alu(RegId::intReg(5), RegId::intReg(1),
                                     RegId::intReg(2)));
    rn.renameInst(d, 1);
    EXPECT_NE(d.vpReg, kNoReg);
    EXPECT_EQ(d.physReg, kNoReg);          // no storage allocated yet!
    EXPECT_EQ(d.wakeupTag, d.vpReg);
    EXPECT_EQ(d.prevTag, 5);               // previous VP mapping
    EXPECT_EQ(rn.gmtVP(RegClass::Int, 5), d.vpReg);
    EXPECT_FALSE(rn.gmtValid(RegClass::Int, 5));  // V bit reset
    // Physical pool untouched at decode — the paper's key property.
    EXPECT_EQ(rn.freePhysRegs(RegClass::Int), 32u);
}

TEST(VirtualPhysical, SourceRenamingFollowsVBit)
{
    VirtualPhysicalRename rn(cfg(), false);
    auto p = inst(1, StaticInst::alu(RegId::intReg(5), RegId::intReg(1),
                                     RegId::intReg(2)));
    rn.renameInst(p, 1);
    auto c = inst(2, StaticInst::alu(RegId::intReg(6), RegId::intReg(5),
                                     RegId::intReg(1)));
    rn.renameInst(c, 1);
    // r5: V clear -> VP tag, not ready.
    EXPECT_EQ(c.src[0].tag, p.vpReg);
    EXPECT_FALSE(c.src[0].ready);
    // r1: architected, V set -> physical register, ready.
    EXPECT_EQ(c.src[1].tag, 1);
    EXPECT_TRUE(c.src[1].ready);
}

TEST(VirtualPhysical, CompleteAllocatesAndUpdatesPmtGmt)
{
    VirtualPhysicalRename rn(cfg(), false);
    auto d = inst(1, StaticInst::alu(RegId::intReg(5), RegId::intReg(1),
                                     RegId::intReg(2)));
    rn.renameInst(d, 1);
    auto res = rn.complete(d, 10);
    ASSERT_TRUE(res.ok);
    EXPECT_NE(d.physReg, kNoReg);
    EXPECT_EQ(rn.freePhysRegs(RegClass::Int), 31u);
    EXPECT_EQ(rn.pmtPhys(RegClass::Int, d.vpReg), d.physReg);
    EXPECT_TRUE(rn.gmtValid(RegClass::Int, 5));
    EXPECT_EQ(rn.gmtPhys(RegClass::Int, 5), d.physReg);
}

TEST(VirtualPhysical, GmtBroadcastSkippedWhenRemapped)
{
    // If a younger instruction renamed the same logical register before
    // the producer completed, the GMT must NOT be updated by the older
    // completion (its VP field no longer matches).
    VirtualPhysicalRename rn(cfg(), false);
    auto a = inst(1, StaticInst::alu(RegId::intReg(5), RegId::intReg(1),
                                     RegId::intReg(2)));
    rn.renameInst(a, 1);
    auto b = inst(2, StaticInst::alu(RegId::intReg(5), RegId::intReg(1),
                                     RegId::intReg(2)));
    rn.renameInst(b, 1);
    rn.complete(a, 5);
    EXPECT_FALSE(rn.gmtValid(RegClass::Int, 5));
    EXPECT_EQ(rn.gmtVP(RegClass::Int, 5), b.vpReg);
    // The PMT still records a's binding for consumers holding its tag.
    EXPECT_EQ(rn.pmtPhys(RegClass::Int, a.vpReg), a.physReg);
}

TEST(VirtualPhysical, CommitFreesPreviousVPAndItsPhysical)
{
    VirtualPhysicalRename rn(cfg(), false);
    auto d = inst(1, StaticInst::alu(RegId::intReg(5), RegId::intReg(1),
                                     RegId::intReg(2)));
    rn.renameInst(d, 1);
    rn.complete(d, 5);
    std::size_t vpFree = rn.freeVPRegs(RegClass::Int);
    rn.commitInst(d, 10);
    // Previous VP register (initial vp 5) returns immediately.
    EXPECT_EQ(rn.freeVPRegs(RegClass::Int), vpFree + 1);
    EXPECT_EQ(rn.pmtPhys(RegClass::Int, 5), kNoReg);
    // The physical register frees one cycle later (PMT-lookup delay).
    EXPECT_EQ(rn.freePhysRegs(RegClass::Int), 31u);
    rn.tick(11);
    EXPECT_EQ(rn.freePhysRegs(RegClass::Int), 32u);
}

TEST(VirtualPhysical, SquashRestoresGmtIncludingVBit)
{
    VirtualPhysicalRename rn(cfg(), false);
    auto d = inst(1, StaticInst::alu(RegId::intReg(5), RegId::intReg(1),
                                     RegId::intReg(2)));
    rn.renameInst(d, 1);
    rn.complete(d, 5);  // allocated a register
    rn.squashInst(d, 6);
    // GMT restored to the architected mapping (valid via PMT).
    EXPECT_EQ(rn.gmtVP(RegClass::Int, 5), 5);
    EXPECT_TRUE(rn.gmtValid(RegClass::Int, 5));
    EXPECT_EQ(rn.gmtPhys(RegClass::Int, 5), 5);
    // Both the VP tag and the physical register returned to the pools.
    EXPECT_EQ(rn.freePhysRegs(RegClass::Int), 32u);
    EXPECT_EQ(rn.freeVPRegs(RegClass::Int), 128u);
    rn.checkInvariants();
}

TEST(VirtualPhysical, SquashOfUncompletedRestoresInvalidV)
{
    VirtualPhysicalRename rn(cfg(), false);
    auto a = inst(1, StaticInst::alu(RegId::intReg(5), RegId::intReg(1),
                                     RegId::intReg(2)));
    rn.renameInst(a, 1);
    auto b = inst(2, StaticInst::alu(RegId::intReg(5), RegId::intReg(3),
                                     RegId::intReg(4)));
    rn.renameInst(b, 1);
    // Squash b (youngest first): r5 maps back to a's VP, which has no
    // physical register yet -> V must be clear.
    rn.squashInst(b, 2);
    EXPECT_EQ(rn.gmtVP(RegClass::Int, 5), a.vpReg);
    EXPECT_FALSE(rn.gmtValid(RegClass::Int, 5));
}

TEST(VirtualPhysical, WritebackRejectionWhenNotAllowed)
{
    // 34 physical regs, NRR = 2: two reserved slots. A younger
    // instruction completing while free <= NRR - Used is denied.
    VirtualPhysicalRename rn(cfg(34, 2), false);
    std::vector<DynInst> insts;
    for (InstSeqNum i = 1; i <= 3; ++i) {
        insts.push_back(inst(i, StaticInst::alu(RegId::intReg(10 + i),
                                                RegId::intReg(1),
                                                RegId::intReg(2))));
        rn.renameInst(insts.back(), 1);
    }
    // Youngest (seq 3, not reserved) completes first: free = 2 is not
    // > NRR - Used = 2 -> rejected.
    auto res = rn.complete(insts[2], 5);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(insts[2].physReg, kNoReg);
    EXPECT_EQ(rn.allocationRejections(), 1u);
    // Reserved instructions may allocate.
    EXPECT_TRUE(rn.complete(insts[0], 6).ok);
    EXPECT_TRUE(rn.complete(insts[1], 6).ok);
    // Now free = 0: the retry still fails...
    EXPECT_FALSE(rn.complete(insts[2], 7).ok);
    // ...until a commit frees a register (one-cycle delay).
    rn.commitInst(insts[0], 8);
    rn.tick(9);
    EXPECT_TRUE(rn.complete(insts[2], 9).ok);
}

TEST(VirtualPhysical, IssuePolicyAllocatesAtIssue)
{
    VirtualPhysicalRename rn(cfg(), true);
    auto d = inst(1, StaticInst::alu(RegId::intReg(5), RegId::intReg(1),
                                     RegId::intReg(2)));
    rn.renameInst(d, 1);
    EXPECT_EQ(d.physReg, kNoReg);
    EXPECT_TRUE(rn.tryIssue(d, 3));
    EXPECT_NE(d.physReg, kNoReg);
    EXPECT_EQ(rn.freePhysRegs(RegClass::Int), 31u);
    // Completion must not allocate again, only bind tables.
    EXPECT_TRUE(rn.complete(d, 6).ok);
    EXPECT_EQ(rn.pmtPhys(RegClass::Int, d.vpReg), d.physReg);
}

TEST(VirtualPhysical, IssuePolicyDeniesYoungWhenScarce)
{
    VirtualPhysicalRename rn(cfg(34, 2), true);
    std::vector<DynInst> insts;
    for (InstSeqNum i = 1; i <= 3; ++i) {
        insts.push_back(inst(i, StaticInst::alu(RegId::intReg(10 + i),
                                                RegId::intReg(1),
                                                RegId::intReg(2))));
        rn.renameInst(insts.back(), 1);
    }
    EXPECT_FALSE(rn.tryIssue(insts[2], 2));  // young, free == NRR - Used
    EXPECT_EQ(rn.issueRejections(), 1u);
    EXPECT_TRUE(rn.tryIssue(insts[0], 2));   // reserved: always allowed
    // Used = 1, free = 1: the young instruction still needs free > 1.
    EXPECT_FALSE(rn.tryIssue(insts[2], 3));
    EXPECT_TRUE(rn.tryIssue(insts[1], 3));   // second reserved slot
    // Used = 2, free = 0: nothing more may allocate.
    EXPECT_FALSE(rn.tryIssue(insts[2], 4));
    EXPECT_EQ(rn.issueRejections(), 3u);
}

TEST(VirtualPhysical, IssueGateBoundIsAllReservedPrefixOrNone)
{
    // NRR 2 with four spare registers: the bound walks from "all"
    // through "the reserved prefix" to "none" as issue allocates.
    VirtualPhysicalRename rn(cfg(36, 2), true);
    std::vector<DynInst> insts;
    for (InstSeqNum i = 1; i <= 5; ++i) {
        insts.push_back(inst(i, StaticInst::alu(RegId::intReg(10 + i),
                                                RegId::intReg(1),
                                                RegId::intReg(2))));
        rn.renameInst(insts.back(), 1);
    }
    const auto bound = [&rn] { return rn.issueGateBound(RegClass::Int); };
    EXPECT_EQ(bound(), kNoSeqNum);           // free 4 > NRR - Used = 2
    EXPECT_TRUE(rn.tryIssue(insts[4], 2));   // young, free 4 -> 3
    EXPECT_EQ(bound(), kNoSeqNum);           // 3 > 2
    EXPECT_TRUE(rn.tryIssue(insts[3], 2));   // young, free 3 -> 2
    EXPECT_EQ(bound(), 3u);                  // 2 > 2 fails: seq 1, 2 only
    EXPECT_FALSE(rn.tryIssue(insts[2], 2));
    EXPECT_TRUE(rn.tryIssue(insts[0], 2));   // reserved, free 1, Used 1
    EXPECT_EQ(bound(), 3u);
    EXPECT_TRUE(rn.tryIssue(insts[1], 2));   // reserved, free 0
    EXPECT_EQ(bound(), 0u);                  // none
    // The FP file is untouched, and the other schemes never refuse.
    EXPECT_EQ(rn.issueGateBound(RegClass::Float), kNoSeqNum);
    for (RenameScheme scheme :
         {RenameScheme::Conventional, RenameScheme::VPAllocAtWriteback,
          RenameScheme::ConventionalEarlyRelease})
        EXPECT_EQ(makeRenamer(scheme, cfg(36, 2))
                      ->issueGateBound(RegClass::Int),
                  kNoSeqNum)
            << renameSchemeName(scheme);
}

TEST(VirtualPhysical, IssueGateBoundOnlyFallsWhileIssueAllocates)
{
    // Within one issue stage only tryIssue's own allocations change the
    // gate. In any order of attempts, tryIssue admits exactly the
    // instructions below the current bound, and no allocation raises
    // the bound, so one at or above the bound read before the first
    // attempt is refused all cycle.
    std::mt19937 rng(11);
    for (std::uint16_t spare = 1; spare <= 6; ++spare) {
        for (std::uint16_t nrr = 1; nrr <= spare; ++nrr) {
            for (int trial = 0; trial < 10; ++trial) {
                VirtualPhysicalRename rn(
                    cfg(static_cast<std::uint16_t>(kNumLogicalRegs + spare),
                        nrr),
                    true);
                std::vector<DynInst> insts;
                for (InstSeqNum i = 1; i <= 10; ++i) {
                    insts.push_back(inst(
                        i, StaticInst::alu(
                               RegId::intReg(static_cast<std::uint16_t>(i)),
                               RegId::intReg(20), RegId::intReg(21))));
                    rn.renameInst(insts.back(), 1);
                }
                std::vector<std::size_t> order(insts.size());
                for (std::size_t i = 0; i < order.size(); ++i)
                    order[i] = i;
                std::shuffle(order.begin(), order.end(), rng);
                const InstSeqNum start = rn.issueGateBound(RegClass::Int);
                InstSeqNum bound = start;
                for (std::size_t i : order) {
                    DynInst &d = insts[i];
                    EXPECT_EQ(rn.tryIssue(d, 2), d.seq() < bound)
                        << "spare " << spare << " nrr " << nrr;
                    if (d.seq() >= start) {
                        EXPECT_EQ(d.physReg, kNoReg);
                    }
                    const InstSeqNum after =
                        rn.issueGateBound(RegClass::Int);
                    EXPECT_LE(after, bound);
                    bound = after;
                }
            }
        }
    }
}

TEST(VirtualPhysical, WritebackPolicyIssueNeverBlocks)
{
    VirtualPhysicalRename rn(cfg(34, 2), false);
    auto d = inst(1, StaticInst::alu(RegId::intReg(5), RegId::intReg(1),
                                     RegId::intReg(2)));
    rn.renameInst(d, 1);
    EXPECT_TRUE(rn.tryIssue(d, 2));
    EXPECT_EQ(d.physReg, kNoReg);  // still no storage
}

TEST(VirtualPhysical, VPPoolNeverNeededBeyondNlrPlusWindow)
{
    // Rename 128 instructions (a full window) without commits: the VP
    // pool sized at NLR + 128 must suffice.
    VirtualPhysicalRename rn(cfg(), false);
    std::vector<DynInst> insts;
    insts.reserve(128);
    for (InstSeqNum i = 1; i <= 128; ++i) {
        EXPECT_TRUE(rn.canRename(1, 0));
        insts.push_back(inst(i, StaticInst::alu(RegId::intReg(i % 32),
                                                RegId::intReg(1),
                                                RegId::intReg(2))));
        rn.renameInst(insts.back(), 1);
    }
    EXPECT_EQ(rn.freeVPRegs(RegClass::Int), 0u);
    EXPECT_FALSE(rn.canRename(1, 0));
    rn.checkInvariants();
}

TEST(VirtualPhysical, NoDecodeStallWhileConventionalWouldStall)
{
    // The paper's headline property: decode never stalls for *physical*
    // registers. Rename 60 integer destinations (conventional would
    // stall at 32) and check the physical pool is untouched.
    VirtualPhysicalRename rn(cfg(), false);
    std::vector<DynInst> insts;
    for (InstSeqNum i = 1; i <= 60; ++i) {
        insts.push_back(inst(i, StaticInst::alu(RegId::intReg(i % 32),
                                                RegId::intReg(1),
                                                RegId::intReg(2))));
        rn.renameInst(insts.back(), 1);
    }
    EXPECT_EQ(rn.freePhysRegs(RegClass::Int), 32u);
}

TEST(VirtualPhysicalDeath, NrrBeyondSparePanics)
{
    EXPECT_DEATH(VirtualPhysicalRename(cfg(40, 16), false),
                 "NRRint larger");
}

TEST(VirtualPhysicalDeath, ZeroNrrPanics)
{
    EXPECT_DEATH(VirtualPhysicalRename(cfg(64, 0), false), "NRR");
}

} // namespace
} // namespace vpr
