/** @file Unit tests for the binary trace file format. */

#include <gtest/gtest.h>

#include <cstdio>

#include "trace/builder.hh"
#include "trace/kernels/kernels.hh"
#include "trace/trace_file.hh"

#include "../support/expect_error.hh"

namespace vpr
{
namespace
{

std::string
tmpPath(const char *tag)
{
    return ::testing::TempDir() + "/vpr_trace_" + tag + ".vprt";
}

TEST(TraceFile, RoundTripPreservesEveryField)
{
    TraceBuilder b(0x4000);
    b.load(RegId::fpReg(2), RegId::intReg(6), 0x123456789abcull);
    b.store(RegId::fpReg(3), RegId::intReg(7), 0x80);
    b.branch(RegId::intReg(1), true, 0xdeadbeef);
    b.fpDiv(RegId::fpReg(4), RegId::fpReg(5), RegId::fpReg(6));
    b.nop();
    auto recs = b.records();

    std::string path = tmpPath("roundtrip");
    EXPECT_EQ(writeTraceFile(path, recs), recs.size());
    auto back = readTraceFile(path);

    ASSERT_EQ(back.size(), recs.size());
    for (std::size_t i = 0; i < recs.size(); ++i) {
        EXPECT_EQ(back[i].pc, recs[i].pc) << i;
        EXPECT_EQ(back[i].op, recs[i].op) << i;
        EXPECT_EQ(back[i].dest, recs[i].dest) << i;
        EXPECT_EQ(back[i].src[0], recs[i].src[0]) << i;
        EXPECT_EQ(back[i].src[1], recs[i].src[1]) << i;
        EXPECT_EQ(back[i].effAddr, recs[i].effAddr) << i;
        EXPECT_EQ(back[i].memSize, recs[i].memSize) << i;
        EXPECT_EQ(back[i].taken, recs[i].taken) << i;
        EXPECT_EQ(back[i].target, recs[i].target) << i;
    }
    std::remove(path.c_str());
}

TEST(TraceFile, StreamDrainRespectsLimit)
{
    auto kernel = makeBenchmarkStream("compress");
    std::string path = tmpPath("drain");
    EXPECT_EQ(writeTraceFile(path, *kernel, 1234), 1234u);
    auto back = readTraceFile(path);
    EXPECT_EQ(back.size(), 1234u);
    std::remove(path.c_str());
}

TEST(TraceFile, FileStreamReplaysKernelExactly)
{
    auto kernel = makeBenchmarkStream("swim");
    std::string path = tmpPath("replay");
    writeTraceFile(path, *kernel, 500);

    kernel->reset();
    FileTraceStream fs(path);
    for (int i = 0; i < 500; ++i) {
        auto a = kernel->next();
        auto b = fs.next();
        ASSERT_TRUE(a && b);
        EXPECT_EQ(a->pc, b->pc);
        EXPECT_EQ(a->effAddr, b->effAddr);
    }
    EXPECT_FALSE(fs.next().has_value());
    fs.reset();
    EXPECT_TRUE(fs.next().has_value());
    std::remove(path.c_str());
}

TEST(TraceFile, EmptyTraceIsValid)
{
    std::string path = tmpPath("empty");
    writeTraceFile(path, std::vector<TraceRecord>{});
    EXPECT_TRUE(readTraceFile(path).empty());
    std::remove(path.c_str());
}

TEST(TraceFileDeath, MissingFileIsFatal)
{
    EXPECT_VPR_ERROR(readTraceFile("/nonexistent/path.vprt"), "cannot open");
}

TEST(TraceFileDeath, GarbageFileIsFatal)
{
    std::string path = tmpPath("garbage");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    std::fputs("this is not a trace", f);
    std::fclose(f);
    EXPECT_VPR_ERROR(readTraceFile(path), "not a vpr trace");
    std::remove(path.c_str());
}

TEST(TraceFileDeath, TruncatedBodyIsFatal)
{
    TraceBuilder b;
    b.nop().nop().nop();
    std::string path = tmpPath("trunc");
    writeTraceFile(path, b.records());
    // Chop the last record in half.
    std::FILE *f = std::fopen(path.c_str(), "rb+");
    std::fseek(f, 0, SEEK_END);
    long sz = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(truncate(path.c_str(), sz - 20), 0);
    EXPECT_VPR_ERROR(readTraceFile(path), "truncated");
    std::remove(path.c_str());
}

TEST(TraceFileDeath, DamagedHeaderAndRecordsAreErrors)
{
    // Each damage below used to abort the process or corrupt memory:
    // a count the file cannot back was reserved up front (bad_alloc),
    // a register index >= 32 overran the renamer's map tables, and an
    // op class past the last one tripped an assertion.
    TraceBuilder b;
    b.alu(RegId::intReg(1), RegId::intReg(2), RegId::intReg(3));
    const std::string path = tmpPath("damaged");
    auto damage = [&](long offset, unsigned char byte) {
        writeTraceFile(path, b.records());
        std::FILE *f = std::fopen(path.c_str(), "rb+");
        std::fseek(f, offset, SEEK_SET);
        std::fputc(byte, f);
        std::fclose(f);
    };
    const long record = 16;  // header: magic, version, count
    damage(15, 0xff);        // count's top byte: ~4 G records claimed
    EXPECT_VPR_ERROR(readTraceFile(path), "truncated at record 1 of");
    damage(record + 26, 40);  // dest register index
    EXPECT_VPR_ERROR(readTraceFile(path), "record 0: bad dest register");
    damage(record + 24, 200);  // op class
    EXPECT_VPR_ERROR(readTraceFile(path), "record 0: bad op class 200");
    std::remove(path.c_str());
}

} // namespace
} // namespace vpr
