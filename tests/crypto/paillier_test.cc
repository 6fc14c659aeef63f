#include "crypto/paillier.h"

#include <gtest/gtest.h>

#include <string>

namespace dpe::crypto {
namespace {

class PaillierTest : public ::testing::Test {
 protected:
  static const Paillier::KeyPair& Kp() {
    static Paillier::KeyPair kp = [] {
      Csprng rng = Csprng::FromSeed("paillier-test");
      return Paillier::GenerateKeyPair(256, rng).value();
    }();
    return kp;
  }

  Csprng rng_ = Csprng::FromSeed("paillier-ops");
};

TEST_F(PaillierTest, KeyShape) {
  const auto& kp = Kp();
  EXPECT_GE(kp.pub.modulus_bits(), 250u);
  EXPECT_EQ(kp.pub.n2, kp.pub.n * kp.pub.n);
  EXPECT_GT(kp.priv.lambda, Bigint(1));
}

TEST_F(PaillierTest, EncryptDecryptRoundTrip) {
  const auto& kp = Kp();
  for (int64_t m : {0L, 1L, 42L, 1'000'000L}) {
    Bigint ct = Paillier::Encrypt(kp, Bigint(m), rng_).value();
    EXPECT_EQ(Paillier::Decrypt(kp.pub, kp.priv, ct).value(), Bigint(m));
  }
}

TEST_F(PaillierTest, EncryptionIsProbabilistic) {
  const auto& kp = Kp();
  Bigint c1 = Paillier::Encrypt(kp, Bigint(7), rng_).value();
  Bigint c2 = Paillier::Encrypt(kp, Bigint(7), rng_).value();
  EXPECT_NE(c1, c2);
  EXPECT_EQ(Paillier::Decrypt(kp.pub, kp.priv, c1).value(),
            Paillier::Decrypt(kp.pub, kp.priv, c2).value());
}

TEST_F(PaillierTest, HomomorphicAddition) {
  const auto& kp = Kp();
  for (auto [a, b] : std::vector<std::pair<int64_t, int64_t>>{
           {0, 0}, {1, 2}, {1000, 2345}, {999999, 1}}) {
    Bigint ca = Paillier::Encrypt(kp, Bigint(a), rng_).value();
    Bigint cb = Paillier::Encrypt(kp, Bigint(b), rng_).value();
    Bigint sum = Paillier::Add(kp.pub, ca, cb);
    EXPECT_EQ(Paillier::Decrypt(kp.pub, kp.priv, sum).value(), Bigint(a + b));
  }
}

TEST_F(PaillierTest, LongSumFold) {
  const auto& kp = Kp();
  Bigint acc = Paillier::Encrypt(kp, Bigint(0), rng_).value();
  int64_t expected = 0;
  for (int64_t i = 1; i <= 50; ++i) {
    Bigint ci = Paillier::Encrypt(kp, Bigint(i * 13), rng_).value();
    acc = Paillier::Add(kp.pub, acc, ci);
    expected += i * 13;
  }
  EXPECT_EQ(Paillier::Decrypt(kp.pub, kp.priv, acc).value(), Bigint(expected));
}

TEST_F(PaillierTest, AddPlainAndMulPlain) {
  const auto& kp = Kp();
  Bigint ct = Paillier::Encrypt(kp, Bigint(100), rng_).value();
  Bigint plus = Paillier::AddPlain(kp.pub, ct, Bigint(23));
  EXPECT_EQ(Paillier::Decrypt(kp.pub, kp.priv, plus).value(), Bigint(123));
  Bigint times = Paillier::MulPlain(kp.pub, ct, Bigint(7));
  EXPECT_EQ(Paillier::Decrypt(kp.pub, kp.priv, times).value(), Bigint(700));
}

TEST_F(PaillierTest, SignedEncoding) {
  const auto& kp = Kp();
  for (int64_t v : {0L, 5L, -5L, -123456L, 999999L}) {
    Bigint m = Paillier::EncodeSigned(kp.pub, v);
    EXPECT_FALSE(m.IsNegative());
    EXPECT_EQ(Paillier::DecodeSigned(kp.pub, m).value(), v);
  }
}

TEST_F(PaillierTest, SignedArithmeticThroughHomomorphism) {
  const auto& kp = Kp();
  // (-30) + 100 = 70 through ciphertext space.
  Bigint ca =
      Paillier::Encrypt(kp, Paillier::EncodeSigned(kp.pub, -30), rng_).value();
  Bigint cb =
      Paillier::Encrypt(kp, Paillier::EncodeSigned(kp.pub, 100), rng_).value();
  Bigint sum = Paillier::Add(kp.pub, ca, cb);
  Bigint m = Paillier::Decrypt(kp.pub, kp.priv, sum).value();
  EXPECT_EQ(Paillier::DecodeSigned(kp.pub, m).value(), 70);
}

TEST_F(PaillierTest, RejectsOutOfRangeInputs) {
  const auto& kp = Kp();
  EXPECT_FALSE(Paillier::Encrypt(kp, Bigint(-1), rng_).ok());
  EXPECT_FALSE(Paillier::Encrypt(kp, kp.pub.n, rng_).ok());
  EXPECT_FALSE(Paillier::Decrypt(kp.pub, kp.priv, kp.pub.n2).ok());
}

// Encrypt computes r^n mod n^2 by the CRT over p^2 and q^2. Drawing r from
// a copy of the same Csprng, the ciphertext must equal the textbook
// (1 + m*n) * r^n mod n^2 bit for bit.
TEST_F(PaillierTest, CrtEncryptMatchesTextbook) {
  for (int bits : {64, 512, 1024}) {
    Csprng key_rng = Csprng::FromSeed("paillier-crt-" + std::to_string(bits));
    const Paillier::KeyPair kp =
        Paillier::GenerateKeyPair(bits, key_rng).value();
    const Bigint& n = kp.pub.n;
    Csprng m_rng = Csprng::FromSeed("paillier-crt-m");
    const Bigint plaintexts[] = {Bigint(0), Bigint(1), n - Bigint(1),
                                 Bigint::RandomBelow(n, m_rng)};
    Csprng rng = Csprng::FromSeed("paillier-crt-r");
    for (const Bigint& m : plaintexts) {
      Csprng textbook_rng = rng;  // draws the same r as Encrypt below
      Bigint r;
      do {
        r = Bigint::RandomBelow(n, textbook_rng);
      } while (r.IsZero() || Bigint::Gcd(r, n) != Bigint(1));
      const Bigint expected =
          ((Bigint(1) + m * n) * r.PowMod(n, kp.pub.n2)) % kp.pub.n2;
      EXPECT_EQ(Paillier::Encrypt(kp, m, rng).value(), expected)
          << bits << " bits, m = " << m;
      EXPECT_EQ(Paillier::Decrypt(kp.pub, kp.priv, expected).value(), m);
    }
  }
}

TEST_F(PaillierTest, RejectsTinyModulus) {
  Csprng rng = Csprng::FromSeed("tiny");
  EXPECT_FALSE(Paillier::GenerateKeyPair(32, rng).ok());
}

TEST_F(PaillierTest, DistinctKeyPairs) {
  Csprng r1 = Csprng::FromSeed("kp1");
  Csprng r2 = Csprng::FromSeed("kp2");
  auto kp1 = Paillier::GenerateKeyPair(128, r1).value();
  auto kp2 = Paillier::GenerateKeyPair(128, r2).value();
  EXPECT_NE(kp1.pub.n, kp2.pub.n);
}

}  // namespace
}  // namespace dpe::crypto
