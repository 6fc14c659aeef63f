#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "common/hex.h"
#include "common/simd.h"

namespace dpe::crypto {
namespace {

// FIPS 180-4 / NIST test vectors.
TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(HexEncode(Sha256::Digest("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(HexEncode(Sha256::Digest("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(HexEncode(Sha256::Digest(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 ctx;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.Update(chunk);
  EXPECT_EQ(HexEncode(ctx.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  std::string msg =
      "SELECT a1 FROM r WHERE a2 > 5 -- an arbitrary message for chunking";
  for (size_t split = 0; split <= msg.size(); split += 7) {
    Sha256 ctx;
    ctx.Update(msg.substr(0, split));
    ctx.Update(msg.substr(split));
    EXPECT_EQ(ctx.Finish(), Sha256::Digest(msg)) << "split at " << split;
  }
}

TEST(Sha256Test, BoundaryLengths) {
  // Padding edge cases: lengths around the 55/56/64-byte boundaries.
  for (size_t len : {54u, 55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    std::string msg(len, 'x');
    Bytes d1 = Sha256::Digest(msg);
    Sha256 ctx;
    for (char c : msg) ctx.Update(std::string(1, c));
    EXPECT_EQ(ctx.Finish(), d1) << "len " << len;
  }
}

// Every compress routine runnable here (portable, and SHA-NI where the CPU
// has it) must give the same digests: the NIST vectors, and every length
// 0..300 of seeded random input — all padding boundaries and multi-block
// runs — fed one-shot and in uneven chunks.
Bytes DigestWith(Sha256::CompressFn compress, std::string_view data) {
  Sha256 ctx(compress);
  ctx.Update(data);
  return ctx.Finish();
}

TEST(Sha256CompressTest, NistVectorsOnEveryRunnableCompress) {
  for (const Sha256::Compressor& c : Sha256::RunnableCompressors()) {
    EXPECT_EQ(HexEncode(DigestWith(c.fn, "")),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
        << c.name;
    EXPECT_EQ(HexEncode(DigestWith(c.fn, "abc")),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
        << c.name;
    EXPECT_EQ(HexEncode(DigestWith(
                  c.fn, "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1")
        << c.name;
    Sha256 ctx(c.fn);
    std::string chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i) ctx.Update(chunk);
    EXPECT_EQ(HexEncode(ctx.Finish()),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0")
        << c.name;
  }
}

TEST(Sha256CompressTest, RandomLengthsAgreeAcrossCompresses) {
  const std::vector<Sha256::Compressor>& all = Sha256::RunnableCompressors();
  ASSERT_FALSE(all.empty());
  ASSERT_STREQ(all.front().name, "portable");
  std::mt19937_64 rng(20261019);
  for (size_t len = 0; len <= 300; ++len) {
    std::string msg(len, '\0');
    for (char& ch : msg) ch = static_cast<char>(rng());
    const Bytes want = DigestWith(all.front().fn, msg);
    for (const Sha256::Compressor& c : all) {
      EXPECT_EQ(DigestWith(c.fn, msg), want) << c.name << " len " << len;
      Sha256 chunked(c.fn);
      for (size_t at = 0; at < len; at += 1 + at % 71) {
        chunked.Update(std::string_view(msg).substr(at, 1 + at % 71));
      }
      EXPECT_EQ(chunked.Finish(), want) << c.name << " chunked len " << len;
    }
  }
}

TEST(Sha256CompressTest, DefaultFollowsTheSimdDispatch) {
  EXPECT_STREQ(Sha256::DefaultCompressor().name,
               common::simd::UseShaExtensions() ? "sha-ni" : "portable");
}

}  // namespace
}  // namespace dpe::crypto
