#include "crypto/ope.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "crypto/csprng.h"
#include "crypto/keys.h"

namespace dpe::crypto {
namespace {

class OpeTest : public ::testing::Test {
 protected:
  static BoldyrevaOpe SmallOpe() {
    BoldyrevaOpe::Options opts;
    opts.domain_bits = 16;
    opts.range_bits = 32;
    return BoldyrevaOpe::Create(KeyManager("ope-test").Derive("k"), opts).value();
  }
};

TEST_F(OpeTest, DeterministicEncryption) {
  BoldyrevaOpe ope = SmallOpe();
  for (uint64_t x : {0ULL, 1ULL, 1000ULL, 65535ULL}) {
    EXPECT_EQ(ope.Encrypt(x).value(), ope.Encrypt(x).value());
  }
}

TEST_F(OpeTest, StrictlyMonotoneOnRandomPairs) {
  BoldyrevaOpe ope = SmallOpe();
  Csprng rng = Csprng::FromSeed("pairs");
  for (int i = 0; i < 300; ++i) {
    uint64_t a = rng.NextBelow(1ULL << 16);
    uint64_t b = rng.NextBelow(1ULL << 16);
    Bigint ca = ope.Encrypt(a).value();
    Bigint cb = ope.Encrypt(b).value();
    EXPECT_EQ(a < b, ca < cb) << a << " " << b;
    EXPECT_EQ(a == b, ca == cb);
  }
}

TEST_F(OpeTest, MonotoneOnAdjacentValues) {
  BoldyrevaOpe ope = SmallOpe();
  Bigint prev = ope.Encrypt(0).value();
  for (uint64_t x = 1; x < 200; ++x) {
    Bigint cur = ope.Encrypt(x).value();
    EXPECT_LT(prev, cur) << x;
    prev = cur;
  }
}

TEST_F(OpeTest, DomainEndpoints) {
  BoldyrevaOpe ope = SmallOpe();
  Bigint lo = ope.Encrypt(0).value();
  Bigint hi = ope.Encrypt((1ULL << 16) - 1).value();
  EXPECT_LT(lo, hi);
  EXPECT_FALSE(lo.IsNegative());
  EXPECT_LE(hi.BitLength(), 32u);
}

TEST_F(OpeTest, DecryptInvertsEncrypt) {
  BoldyrevaOpe ope = SmallOpe();
  Csprng rng = Csprng::FromSeed("dec");
  for (int i = 0; i < 100; ++i) {
    uint64_t x = rng.NextBelow(1ULL << 16);
    EXPECT_EQ(ope.Decrypt(ope.Encrypt(x).value()).value(), x);
  }
}

TEST_F(OpeTest, DecryptRejectsNonCiphertexts) {
  BoldyrevaOpe ope = SmallOpe();
  // Scan a few values around a real ciphertext; non-image points must fail.
  Bigint ct = ope.Encrypt(1234).value();
  size_t rejected = 0;
  for (int delta = 1; delta <= 5; ++delta) {
    if (!ope.Decrypt(ct + Bigint(delta)).ok()) ++rejected;
    if (!ope.Decrypt(ct - Bigint(delta)).ok()) ++rejected;
  }
  EXPECT_GT(rejected, 0u);  // with 16->32 bit expansion most points are gaps
  EXPECT_FALSE(ope.Decrypt(Bigint(-1)).ok());
}

TEST_F(OpeTest, DifferentKeysDifferentMappings) {
  BoldyrevaOpe::Options opts;
  opts.domain_bits = 16;
  opts.range_bits = 32;
  KeyManager keys("ope-test");
  auto o1 = BoldyrevaOpe::Create(keys.Derive("a"), opts).value();
  auto o2 = BoldyrevaOpe::Create(keys.Derive("b"), opts).value();
  int same = 0;
  for (uint64_t x = 0; x < 50; ++x) {
    if (o1.Encrypt(x).value() == o2.Encrypt(x).value()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST_F(OpeTest, HexEncodingPreservesOrderLexicographically) {
  BoldyrevaOpe ope = SmallOpe();
  Csprng rng = Csprng::FromSeed("hex");
  std::string prev_hex;
  for (uint64_t x = 0; x < 300; x += 3) {
    std::string hex = ope.EncryptToHex(x).value();
    EXPECT_EQ(hex.size(), static_cast<size_t>(ope.hex_width()));
    if (!prev_hex.empty()) EXPECT_LT(prev_hex, hex);
    prev_hex = hex;
  }
}

TEST_F(OpeTest, FullDomainBitsWork) {
  BoldyrevaOpe::Options opts;  // 64 -> 96 default
  auto ope = BoldyrevaOpe::Create(KeyManager("ope-test").Derive("full"), opts)
                 .value();
  uint64_t xs[] = {0, 1, 1ULL << 32, (1ULL << 63) + 5, ~0ULL};
  Bigint prev(-1);
  for (uint64_t x : xs) {
    Bigint c = ope.Encrypt(x).value();
    EXPECT_LT(prev, c);
    EXPECT_EQ(ope.Decrypt(c).value(), x);
    prev = c;
  }
}

// Pinned ciphertexts: the tree descent, its PRF coins and the hex framing
// must not drift, whatever is done to make them cheaper.
TEST_F(OpeTest, GoldenHexVectors) {
  struct Vector {
    int range_bits;
    uint64_t x;
    const char* hex;
  };
  const Vector kVectors[] = {
      {80, 0, "000000000001a76edd0a"},
      {80, 42, "00000000020883bcc24d"},
      {80, ~0ULL, "fffffffffffffbf6969f"},
      {96, 0, "0000000000878f2c7aa1663b"},
      {96, 1ULL << 40, "0000ba0aa5cf7d1c4bb738be"},
      {96, (1ULL << 63) + 7, "1dcf06123796d58a16f71657"},
      {128, 1, "00000000011baa4acdf0f0e92be41728"},
      {128, 123456789, "00001dc6c0a36027db4dc96dd4f1d27c"},
      {128, ~0ULL - 1, "fffffffffff6aff5250d813f7a47cef8"},
  };
  for (const Vector& v : kVectors) {
    BoldyrevaOpe::Options opts;
    opts.range_bits = v.range_bits;
    auto ope =
        BoldyrevaOpe::Create(KeyManager("ope-golden").Derive("k"), opts).value();
    EXPECT_EQ(ope.EncryptToHex(v.x).value(), v.hex)
        << v.range_bits << " " << v.x;
  }
}

// x >= 2^domain_bits has no image: the descent would take the empty right
// subtree at every level and never reach a leaf. Encrypt fails typed.
TEST_F(OpeTest, OutOfDomainPlaintextIsRejected) {
  for (int domain_bits : {16, 32}) {
    BoldyrevaOpe::Options opts;
    opts.domain_bits = domain_bits;
    opts.range_bits = domain_bits + 24;
    const BoldyrevaOpe ope =
        BoldyrevaOpe::Create(KeyManager("ope-test").Derive("k"), opts).value();
    const uint64_t domain_end = 1ULL << domain_bits;
    EXPECT_TRUE(ope.Encrypt(domain_end - 1).ok()) << domain_bits;
    for (uint64_t x : {uint64_t{1} << 16, uint64_t{1} << 32, UINT64_MAX}) {
      if (x < domain_end) {
        EXPECT_TRUE(ope.Encrypt(x).ok()) << domain_bits << " " << x;
        continue;
      }
      EXPECT_EQ(ope.Encrypt(x).status().code(), StatusCode::kInvalidArgument)
          << domain_bits << " " << x;
      EXPECT_EQ(ope.EncryptToHex(x).status().code(),
                StatusCode::kInvalidArgument)
          << domain_bits << " " << x;
    }
  }
}

TEST_F(OpeTest, RejectsBadOptions) {
  KeyManager keys("ope-test");
  BoldyrevaOpe::Options bad;
  bad.domain_bits = 64;
  bad.range_bits = 64;  // must exceed domain
  EXPECT_FALSE(BoldyrevaOpe::Create(keys.Derive("k"), bad).ok());
  bad.domain_bits = 0;
  bad.range_bits = 32;
  EXPECT_FALSE(BoldyrevaOpe::Create(keys.Derive("k"), bad).ok());
  EXPECT_FALSE(BoldyrevaOpe::Create("short-key").ok());
}

// Encrypt memoizes images per instance; a memo hit must be exactly the
// image the tree descent produces.
TEST_F(OpeTest, MemoHitsEqualFreshDescents) {
  BoldyrevaOpe ope = SmallOpe();
  const Bigint first = ope.Encrypt(777).value();
  for (uint64_t x = 0; x < 50; ++x) ASSERT_TRUE(ope.Encrypt(x * 131).ok());
  EXPECT_EQ(ope.Encrypt(777).value(), first);      // hit after other misses
  const BoldyrevaOpe copy = ope;                   // a copy starts empty
  EXPECT_EQ(copy.Encrypt(777).value(), first);
  EXPECT_EQ(SmallOpe().Encrypt(777).value(), first);  // so does a fresh one
  EXPECT_EQ(SmallOpe().EncryptToHex(777).value(),
            ope.EncryptToHex(777).value());
}

TEST_F(OpeTest, DecryptRoundTripsMemoHits) {
  BoldyrevaOpe ope = SmallOpe();
  for (uint64_t x : {0ULL, 9ULL, 4242ULL, 65535ULL}) {
    ASSERT_TRUE(ope.Encrypt(x).ok());              // miss, fills the memo
    EXPECT_EQ(ope.Decrypt(ope.Encrypt(x).value()).value(), x);  // hit
  }
}

TEST_F(OpeTest, AssignmentDropsTheOldKeysImages) {
  BoldyrevaOpe::Options opts;
  opts.domain_bits = 16;
  opts.range_bits = 32;
  KeyManager keys("ope-test");
  BoldyrevaOpe ope = BoldyrevaOpe::Create(keys.Derive("a"), opts).value();
  const Bigint under_a = ope.Encrypt(5).value();
  const BoldyrevaOpe other = BoldyrevaOpe::Create(keys.Derive("b"), opts).value();
  ope = other;
  EXPECT_NE(ope.Encrypt(5).value(), under_a);
  EXPECT_EQ(ope.Encrypt(5).value(), other.Encrypt(5).value());
}

// Four threads encrypt overlapping plaintexts through one instance (and so
// one memo); every image must equal the serial result.
TEST(OpeConcurrencyTest, SharedInstanceAgreesWithSerial) {
  BoldyrevaOpe::Options opts;
  opts.range_bits = 80;
  const Bytes key = KeyManager("ope-concurrency").Derive("k");
  std::vector<std::string> serial;
  {
    const BoldyrevaOpe ope = BoldyrevaOpe::Create(key, opts).value();
    for (uint64_t x = 0; x < 64; ++x) {
      serial.push_back(ope.EncryptToHex(x * 97).value());
    }
  }
  const BoldyrevaOpe shared = BoldyrevaOpe::Create(key, opts).value();
  constexpr int kThreads = 4;
  std::vector<std::vector<std::string>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread starts at a different offset and wraps around, so the
      // threads race on the same plaintexts from different directions.
      for (uint64_t i = 0; i < 64; ++i) {
        const uint64_t x = (i + 16 * t) % 64;
        seen[t].push_back(shared.EncryptToHex(x * 97).value());
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    for (uint64_t i = 0; i < 64; ++i) {
      EXPECT_EQ(seen[t][i], serial[(i + 16 * t) % 64]) << t << " " << i;
    }
  }
}

TEST(DictionaryOpeTest, BuildAndEncryptPreservesOrder) {
  auto ope = DictionaryOpe::Create(KeyManager("dope").Derive("k")).value();
  std::vector<Bytes> domain = {"delta", "alpha", "charlie", "bravo", "alpha"};
  ASSERT_TRUE(ope.BuildFromDomain(domain).ok());
  EXPECT_EQ(ope.size(), 4u);  // deduplicated
  uint64_t a = ope.Encrypt("alpha").value();
  uint64_t b = ope.Encrypt("bravo").value();
  uint64_t c = ope.Encrypt("charlie").value();
  uint64_t d = ope.Encrypt("delta").value();
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_LT(c, d);
}

TEST(DictionaryOpeTest, DecryptInverts) {
  auto ope = DictionaryOpe::Create(KeyManager("dope").Derive("k")).value();
  ASSERT_TRUE(ope.BuildFromDomain({"x", "y", "z"}).ok());
  for (const char* v : {"x", "y", "z"}) {
    EXPECT_EQ(ope.Decrypt(ope.Encrypt(v).value()).value(), v);
  }
  EXPECT_FALSE(ope.Decrypt(123456789).ok());
}

TEST(DictionaryOpeTest, UnknownValueFails) {
  auto ope = DictionaryOpe::Create(KeyManager("dope").Derive("k")).value();
  ASSERT_TRUE(ope.BuildFromDomain({"a"}).ok());
  EXPECT_FALSE(ope.Encrypt("missing").ok());
}

TEST(DictionaryOpeTest, DynamicInsertKeepsOrder) {
  auto ope = DictionaryOpe::Create(KeyManager("dope").Derive("k")).value();
  ASSERT_TRUE(ope.BuildFromDomain({"apple", "orange"}).ok());
  ASSERT_TRUE(ope.Insert("banana").ok());
  ASSERT_TRUE(ope.Insert("zebra").ok());
  uint64_t apple = ope.Encrypt("apple").value();
  uint64_t banana = ope.Encrypt("banana").value();
  uint64_t orange = ope.Encrypt("orange").value();
  uint64_t zebra = ope.Encrypt("zebra").value();
  EXPECT_LT(apple, banana);
  EXPECT_LT(banana, orange);
  EXPECT_LT(orange, zebra);
}

TEST(DictionaryOpeTest, InsertExistingIsNoop) {
  auto ope = DictionaryOpe::Create(KeyManager("dope").Derive("k")).value();
  ASSERT_TRUE(ope.BuildFromDomain({"a", "b"}).ok());
  uint64_t before = ope.Encrypt("a").value();
  ASSERT_TRUE(ope.Insert("a").ok());
  EXPECT_EQ(ope.Encrypt("a").value(), before);
  EXPECT_EQ(ope.size(), 2u);
}

TEST(DictionaryOpeTest, DeterministicAcrossInstances) {
  KeyManager keys("dope");
  auto o1 = DictionaryOpe::Create(keys.Derive("k")).value();
  auto o2 = DictionaryOpe::Create(keys.Derive("k")).value();
  std::vector<Bytes> domain = {"m", "n", "o", "p"};
  ASSERT_TRUE(o1.BuildFromDomain(domain).ok());
  ASSERT_TRUE(o2.BuildFromDomain(domain).ok());
  for (const auto& v : domain) {
    EXPECT_EQ(o1.Encrypt(v).value(), o2.Encrypt(v).value());
  }
}

}  // namespace
}  // namespace dpe::crypto
