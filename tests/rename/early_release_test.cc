/** @file Unit tests for conventional renaming + early release. */

#include <gtest/gtest.h>

#include "rename/early_release.hh"

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

/** Bind a standalone DynInst to a fresh hot-pool slot (the ROB does
 *  this in production) and stamp its sequence number. */
void
bind(DynInst &d, InstSeqNum seq)
{
    static InstHotPool pool(1 << 12);
    static HotIdx next = 0;
    HotIdx sl = next++ % pool.capacity();
    pool.reset(sl);
    d.bindHot(&pool, sl);
    d.setSeq(seq);
}

DynInst
alu(InstSeqNum seq, std::uint16_t destIdx, std::uint16_t s1 = 1,
    std::uint16_t s2 = 2)
{
    DynInst d;
    d.si = StaticInst::alu(RegId::intReg(destIdx), RegId::intReg(s1),
                           RegId::intReg(s2));
    bind(d, seq);
    return d;
}

TEST(EarlyRelease, SchemeName)
{
    EarlyReleaseRename rn(cfg64());
    EXPECT_EQ(rn.scheme(), RenameScheme::ConventionalEarlyRelease);
    EXPECT_STREQ(renameSchemeName(rn.scheme()), "conv-early-release");
}

TEST(EarlyRelease, ReleasesWhenSupersededWrittenAndRead)
{
    EarlyReleaseRename rn(cfg64());
    // Producer writes r5.
    auto a = alu(1, 5);
    rn.renameInst(a, 1);
    rn.tryIssue(a, 2);
    rn.complete(a, 3);
    // Note: renaming a destination immediately releases the previous
    // mapping when it is already dead — the architected registers of
    // r5/r6 below fall in that category, hence the baseline counts.
    EXPECT_EQ(rn.earlyReleases(), 1u);  // arch r5, released at a's rename
    // Consumer reads r5 (renamed but not yet issued).
    auto c = alu(2, 6, 5, 1);
    rn.renameInst(c, 4);
    EXPECT_EQ(rn.earlyReleases(), 2u);  // arch r6
    // Superseder of r5: a's register has a pending reader (c) -> held.
    auto b = alu(3, 5);
    rn.renameInst(b, 5);
    std::size_t freeBefore = rn.freePhysRegs(RegClass::Int);
    EXPECT_EQ(rn.earlyReleases(), 2u);  // consumer still pending
    // Consumer issues: a's register is now dead -> early release.
    rn.tryIssue(c, 6);
    EXPECT_EQ(rn.earlyReleases(), 3u);
    EXPECT_EQ(rn.freePhysRegs(RegClass::Int), freeBefore + 1);
    rn.checkInvariants();

    // The superseder's commit must NOT free it a second time.
    rn.complete(c, 7);
    rn.complete(b, 7);
    rn.commitInst(a, 8);
    rn.commitInst(c, 8);
    std::size_t freeAfter = rn.freePhysRegs(RegClass::Int);
    rn.commitInst(b, 9);
    EXPECT_EQ(rn.freePhysRegs(RegClass::Int), freeAfter);
    rn.checkInvariants();
}

TEST(EarlyRelease, NoReleaseBeforeValueWritten)
{
    EarlyReleaseRename rn(cfg64());
    auto a = alu(1, 5);
    rn.renameInst(a, 1);     // a holds the new mapping of r5
    auto b = alu(2, 5);
    rn.renameInst(b, 2);     // supersedes a before a completed
    // Only the architected r5 (dead on a's rename) was released; a's
    // own register is superseded but not written yet.
    EXPECT_EQ(rn.earlyReleases(), 1u);
    rn.tryIssue(a, 3);
    rn.complete(a, 4);       // now written + superseded + no readers
    EXPECT_EQ(rn.earlyReleases(), 2u);
}

TEST(EarlyRelease, NoReleaseWhileReadersPending)
{
    EarlyReleaseRename rn(cfg64());
    auto a = alu(1, 5);
    rn.renameInst(a, 1);
    rn.tryIssue(a, 2);
    rn.complete(a, 3);
    auto reader = alu(2, 7, 5, 5);  // reads r5 twice
    rn.renameInst(reader, 4);
    EXPECT_EQ(rn.pendingReaders(RegClass::Int, a.physReg), 2u);
    auto b = alu(3, 5);
    rn.renameInst(b, 5);            // supersede
    // Two architected registers (r5 at a's rename, r7 at the reader's)
    // released so far; a's own register is pinned by the reader.
    EXPECT_EQ(rn.earlyReleases(), 2u);
    rn.tryIssue(reader, 6);
    EXPECT_EQ(rn.earlyReleases(), 3u);
}

TEST(EarlyRelease, CommitPathStillWorksWithoutEarlyRelease)
{
    // A value read before being superseded frees at the superseder's
    // commit, like plain conventional renaming... unless the release
    // conditions are met first (they are, right at the supersede).
    EarlyReleaseRename rn(cfg64());
    auto a = alu(1, 5);
    rn.renameInst(a, 1);
    rn.tryIssue(a, 2);
    rn.complete(a, 3);
    // arch reg 5 was already early-released at a's rename, so a's
    // commit must not free it again.
    std::size_t freeAtCommit = rn.freePhysRegs(RegClass::Int);
    rn.commitInst(a, 4);
    EXPECT_EQ(rn.freePhysRegs(RegClass::Int), freeAtCommit);
    // a's own register is freed early the moment r5 is renamed again
    // (written, no readers).
    auto b = alu(2, 5);
    std::size_t freeBefore = rn.freePhysRegs(RegClass::Int);
    rn.renameInst(b, 5);
    // -1 for b's new register, +1 for a's early-released one.
    EXPECT_EQ(rn.freePhysRegs(RegClass::Int), freeBefore);
    EXPECT_EQ(rn.earlyReleases(), 2u);
}

TEST(EarlyRelease, PressureLowerThanPlainConventional)
{
    auto run = [](RenameManager &rn) {
        InstSeqNum seq = 0;
        std::vector<DynInst> live;
        Cycle now = 0;
        for (int i = 0; i < 200; ++i) {
            ++now;
            rn.tick(now);
            ++seq;
            DynInst d = alu(seq, seq % 16, (seq + 1) % 16, 2);
            rn.renameInst(d, now);
            rn.tryIssue(d, now);
            rn.complete(d, now + 20);  // long-ish lifetime
            live.push_back(d);
            if (live.size() > 6) {
                rn.commitInst(live.front(), now + 21);
                live.erase(live.begin());
            }
        }
        // Register-cycles summed over every completed hold.
        const stats::Distribution &life = rn.lifetimeStat(RegClass::Int);
        return life.mean() * static_cast<double>(life.samples());
    };
    ConventionalRename conv(cfg64());
    EarlyReleaseRename er(cfg64());
    EXPECT_LT(run(er), run(conv));
}

TEST(EarlyRelease, SquashIsSafeWhenPrevMappingWasNotReleased)
{
    EarlyReleaseRename rn(cfg64());
    // Pin the architected r5 with a pending reader so superseding it
    // does not release it.
    auto reader = alu(1, 6, 5, 5);
    rn.renameInst(reader, 1);
    std::size_t baseline = rn.earlyReleases();
    auto a = alu(2, 5);
    rn.renameInst(a, 2);
    EXPECT_EQ(rn.earlyReleases(), baseline);  // r5 pinned by the reader
    // Squashing a (youngest first) is safe: its previous mapping is
    // still allocated and the map-table restore is valid. (The reader
    // itself cannot be squashed safely: its own rename already released
    // the dead architected r6.)
    rn.squashInst(a, 3);
    // reader's destination still held (-1), arch r6 released (+1).
    EXPECT_EQ(rn.freePhysRegs(RegClass::Int), 32u);
    rn.checkInvariants();
}

TEST(EarlyReleaseDeath, SquashAfterEarlyReleasePanics)
{
    EarlyReleaseRename rn(cfg64());
    auto a = alu(1, 5);
    rn.renameInst(a, 1);
    rn.tryIssue(a, 2);
    rn.complete(a, 3);
    auto b = alu(2, 5);
    rn.renameInst(b, 4);  // triggers early release of a's register
    ASSERT_EQ(rn.earlyReleases(), 2u);  // arch r5 + a's register
    EXPECT_DEATH(rn.squashInst(b, 5), "incompatible with squashing");
}

} // namespace
} // namespace vpr
