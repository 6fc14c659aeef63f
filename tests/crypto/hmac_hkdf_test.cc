#include <gtest/gtest.h>

#include "common/hex.h"
#include "crypto/hkdf.h"
#include "crypto/hmac.h"

namespace dpe::crypto {
namespace {

// RFC 4231 test vectors for HMAC-SHA256.
TEST(HmacTest, Rfc4231Case1) {
  Bytes key(20, '\x0b');
  EXPECT_EQ(HexEncode(HmacSha256(key, "Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  EXPECT_EQ(HexEncode(HmacSha256("Jefe", "what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case3) {
  Bytes key(20, '\xaa');
  Bytes msg(50, '\xdd');
  EXPECT_EQ(HexEncode(HmacSha256(key, msg)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacTest, Rfc4231Case6LongKey) {
  Bytes key(131, '\xaa');
  EXPECT_EQ(HexEncode(HmacSha256(
                key, "Test Using Larger Than Block-Size Key - Hash Key First")),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// RFC 4231 cases 1-4, 6 and 7 under every compress routine runnable here.
TEST(HmacTest, Rfc4231OnEveryRunnableCompress) {
  struct Case {
    Bytes key;
    Bytes msg;
    const char* tag;
  };
  const Case kCases[] = {
      {Bytes(20, '\x0b'), "Hi There",
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {"Jefe", "what do ya want for nothing?",
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {Bytes(20, '\xaa'), Bytes(50, '\xdd'),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {HexDecode("0102030405060708090a0b0c0d0e0f10111213141516171819").value(),
       Bytes(50, '\xcd'),
       "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
      {Bytes(131, '\xaa'),
       "Test Using Larger Than Block-Size Key - Hash Key First",
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
      {Bytes(131, '\xaa'),
       "This is a test using a larger than block-size key and a larger than "
       "block-size data. The key needs to be hashed before being used by the "
       "HMAC algorithm.",
       "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
  };
  for (const Sha256::Compressor& c : Sha256::RunnableCompressors()) {
    for (const Case& tc : kCases) {
      EXPECT_EQ(HexEncode(HmacSha256Key(tc.key, c.fn).Mac(tc.msg)), tc.tag)
          << c.name;
    }
  }
}

TEST(HmacTest, KeyedObjectMatchesOneShotAndIsReusable) {
  for (size_t key_len : {0u, 4u, 20u, 64u, 65u, 131u}) {
    const Bytes key(key_len, '\x5a');
    const HmacSha256Key keyed(key);
    for (const Bytes& msg : {Bytes(), Bytes("Hi There"), Bytes(200, '\xdd')}) {
      EXPECT_EQ(keyed.Mac(msg), HmacSha256(key, msg)) << key_len;
      EXPECT_EQ(keyed.Mac(msg), HmacSha256(key, msg)) << "second use";
    }
  }
}

TEST(HmacTest, KeyedPartsAreConcatenated) {
  const HmacSha256Key key("Jefe");
  EXPECT_EQ(HexEncode(key.Mac({"what do ya ", "", "want for nothing?"})),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(PrfTest, KeyedOverloadsMatchRawKey) {
  const HmacSha256Key keyed("k");
  EXPECT_EQ(Prf(keyed, "l", "x"), Prf("k", "l", "x"));
  EXPECT_EQ(PrfExpand(keyed, "l", "x", 77), PrfExpand("k", "l", "x", 77));
  EXPECT_EQ(PrfU64(keyed, "l", "x"), PrfU64("k", "l", "x"));
}

TEST(PrfTest, DomainSeparationByLabel) {
  EXPECT_NE(Prf("k", "label-a", "input"), Prf("k", "label-b", "input"));
  EXPECT_NE(Prf("k", "a", "bc"), Prf("k", "ab", "c"));  // separator matters
  EXPECT_EQ(Prf("k", "a", "b"), Prf("k", "a", "b"));
}

TEST(PrfTest, ExpandLengthAndDeterminism) {
  Bytes b1 = PrfExpand("key", "label", "input", 100);
  Bytes b2 = PrfExpand("key", "label", "input", 100);
  EXPECT_EQ(b1.size(), 100u);
  EXPECT_EQ(b1, b2);
  // Prefix property: shorter expansion is a prefix of longer.
  Bytes b3 = PrfExpand("key", "label", "input", 32);
  EXPECT_EQ(b1.substr(0, 32), b3);
}

TEST(PrfTest, U64Deterministic) {
  EXPECT_EQ(PrfU64("k", "l", "x"), PrfU64("k", "l", "x"));
  EXPECT_NE(PrfU64("k", "l", "x"), PrfU64("k", "l", "y"));
}

// RFC 5869 test vectors for HKDF-SHA256.
TEST(HkdfTest, Rfc5869Case1) {
  Bytes ikm(22, '\x0b');
  auto salt = HexDecode("000102030405060708090a0b0c").value();
  auto info = HexDecode("f0f1f2f3f4f5f6f7f8f9").value();
  Bytes prk = HkdfExtract(salt, ikm);
  EXPECT_EQ(HexEncode(prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5");
  Bytes okm = HkdfExpand(prk, info, 42).value();
  EXPECT_EQ(HexEncode(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(HkdfTest, Rfc5869Case3EmptySaltInfo) {
  Bytes ikm(22, '\x0b');
  Bytes okm = Hkdf(ikm, "", "", 42).value();
  EXPECT_EQ(HexEncode(okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

TEST(HkdfTest, DistinctInfosYieldIndependentKeys) {
  Bytes a = Hkdf("master", "salt", "purpose-a", 32).value();
  Bytes b = Hkdf("master", "salt", "purpose-b", 32).value();
  EXPECT_NE(a, b);
  EXPECT_EQ(a.size(), 32u);
}

// RFC 5869 caps the output at 255 blocks: the one-byte block counter must
// not wrap into non-standard output.
TEST(HkdfTest, OutputBoundIs255Blocks) {
  const Bytes prk = HkdfExtract("salt", "ikm");
  auto max = HkdfExpand(prk, "info", 8160);
  ASSERT_TRUE(max.ok()) << max.status();
  ASSERT_EQ(max->size(), 8160u);
  // T(i) = HMAC(PRK, T(i-1) || info || i), written out independently.
  Bytes expected;
  Bytes t;
  for (int i = 1; i <= 255; ++i) {
    t = HmacSha256(prk, t + "info" + static_cast<char>(i));
    expected += t;
  }
  EXPECT_EQ(*max, expected);

  auto over = HkdfExpand(prk, "info", 8161);
  EXPECT_EQ(over.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Hkdf("ikm", "salt", "info", 8161).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dpe::crypto
