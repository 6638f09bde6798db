/**
 * @file
 * The compressed container and file helpers (common/io/zio.hh): round
 * trips must be byte-exact, and every malformed input — truncation,
 * wrong magic, kind mismatch, flipped payload bytes — must be rejected
 * with a FormatError, never silently accepted.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>

#include "common/io/zio.hh"

namespace vpr
{
namespace
{

TEST(Vprz, StoredRoundTripsAndIsDetected)
{
    const std::string payload(10000, 'a');
    std::string packed = vprzPack(payload, "result", /*compress=*/false);
    EXPECT_EQ(guessFormat(packed), FileFormat::Vprz);
    EXPECT_EQ(vprzUnpack(packed, "result"), payload);
}

TEST(Vprz, CompressedRoundTripsAndShrinks)
{
    std::string payload;
    for (int i = 0; i < 5000; ++i)
        payload += "a very repetitive result line\n";
    std::string packed = vprzPack(payload, "results", /*compress=*/true);
    EXPECT_EQ(vprzUnpack(packed, "results"), payload);
    if (zlibAvailable())
        EXPECT_LT(packed.size(), payload.size() / 4)
            << "zlib present but the container did not compress";
    else
        EXPECT_GT(packed.size(), payload.size());  // stored fallback
}

TEST(Vprz, KindMismatchThrows)
{
    std::string packed = vprzPack("x", "result");
    EXPECT_THROW(vprzUnpack(packed, "results"), FormatError);
    EXPECT_EQ(vprzUnpack(packed, ""), "x");  // empty = any kind
}

TEST(Vprz, CorruptionThrows)
{
    std::string packed = vprzPack("the quick brown fox", "result",
                                  /*compress=*/false);
    std::string flipped = packed;
    flipped[flipped.size() - 10] ^= 0x04;
    EXPECT_THROW(vprzUnpack(flipped, "result"), FormatError);
    EXPECT_THROW(vprzUnpack(packed.substr(0, packed.size() / 2), "result"),
                 FormatError);
    EXPECT_THROW(vprzUnpack("VPRZ", "result"), FormatError);
    EXPECT_THROW(vprzUnpack("not a container at all", "result"), FormatError);
}

TEST(Vprz, FormatDetection)
{
    EXPECT_EQ(guessFormat("cell,benchmark\n0,go\n"), FileFormat::Plain);
    EXPECT_EQ(guessFormat(""), FileFormat::Plain);
    EXPECT_EQ(guessFormat(vprzPack("x", "result")), FileFormat::Vprz);
}

TEST(Fnv, MatchesKnownVectorsAndSeeds)
{
    // FNV-1a 64 reference values.
    EXPECT_EQ(fnv1a("", 0), 14695981039346656037ull);
    EXPECT_EQ(fnv1a("a", 1), 0xaf63dc4c8601ec8cull);
    // Chaining through the seed differs from hashing the concatenation
    // only in where the boundary falls — both must be stable.
    const std::uint64_t ab = fnv1a("ab", 2);
    EXPECT_EQ(fnv1a("b", 1, fnv1a("a", 1)), ab);
}

TEST(AtomicWrite, TwoConcurrentWritersNeverMixPayloads)
{
    // Two writers hammering one path (shared-cache deployments: CI
    // shards publishing the same content-addressed entry, or a daemon
    // and a batch run racing). The tmp names are pid+counter-suffixed,
    // so writes must never observe each other: every read of the final
    // file sees exactly one writer's payload, start to finish.
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::path(::testing::TempDir()) / "vpr_zio_two_writers";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string path = (dir / "contended.bin").string();

    // Distinct page-crossing payloads, recognizable from any byte.
    const std::string payloadA(64 * 1024, 'A');
    const std::string payloadB(64 * 1024, 'B');

    constexpr int kRounds = 50;
    auto writer = [&path](const std::string &payload) {
        for (int i = 0; i < kRounds; ++i)
            ASSERT_TRUE(writeFileAtomic(path, payload)) << i;
    };
    std::thread a(writer, payloadA);
    std::thread b(writer, payloadB);
    a.join();
    b.join();

    std::string final;
    ASSERT_TRUE(readFileBytes(path, final));
    EXPECT_TRUE(final == payloadA || final == payloadB)
        << "final file mixes payloads (size " << final.size() << ")";

    // No orphaned tmp files: every temporary was renamed or cleaned up.
    std::size_t files = 0;
    for (const auto &entry : fs::directory_iterator(dir)) {
        (void)entry;
        ++files;
    }
    EXPECT_EQ(files, 1u);
}

TEST(AtomicWrite, WritesAndReadsBack)
{
    const std::string path =
        ::testing::TempDir() + "/vpr_zio_test_atomic.bin";
    const std::string data("binary\0payload", 14);
    ASSERT_TRUE(writeFileAtomic(path, data));
    std::string back;
    ASSERT_TRUE(readFileBytes(path, back));
    EXPECT_EQ(back, data);
    EXPECT_FALSE(readFileBytes(path + ".does-not-exist", back));
    std::remove(path.c_str());
}

} // namespace
} // namespace vpr
