#include "crypto/keyring.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace dpe::crypto {
namespace {

BoldyrevaOpe::Options OpeOptions() {
  BoldyrevaOpe::Options opts;
  opts.range_bits = 80;
  return opts;
}

TEST(KeyringTest, EncryptorsEqualFreshlyDerivedOnes) {
  KeyManager keys("keyring-test");
  Keyring ring(keys, OpeOptions());
  const DetEncryptor fresh_det = DetEncryptor::Create(keys.Derive("d")).value();
  const BoldyrevaOpe fresh_ope =
      BoldyrevaOpe::Create(keys.Derive("o"), OpeOptions()).value();
  for (int use = 0; use < 2; ++use) {
    EXPECT_EQ(ring.Det("d").value()->EncryptConst("x"), fresh_det.EncryptConst("x"));
    EXPECT_EQ(ring.Ope("o").value()->EncryptToHex(99).value(),
              fresh_ope.EncryptToHex(99).value());
    EXPECT_EQ(PrfU64(ring.Prf("p"), "l", "x"), PrfU64(keys.Derive("p"), "l", "x"));
    EXPECT_EQ(ring.Key("k"), keys.Derive("k"));
  }
}

TEST(KeyringTest, OnePurposeIsKeyedOnce) {
  KeyManager keys("keyring-test");
  Keyring ring(keys, OpeOptions());
  EXPECT_EQ(ring.Det("d").value(), ring.Det("d").value());
  EXPECT_NE(ring.Det("d").value(), ring.Det("e").value());
  EXPECT_EQ(ring.Ope("o").value(), ring.Ope("o").value());
  EXPECT_EQ(&ring.Prf("p"), &ring.Prf("p"));
  EXPECT_EQ(&ring.Key("k"), &ring.Key("k"));
}

TEST(KeyringTest, BadOpeOptionsAreTyped) {
  KeyManager keys("keyring-test");
  BoldyrevaOpe::Options bad;
  bad.range_bits = 64;  // must exceed domain_bits
  Keyring ring(keys, bad);
  EXPECT_EQ(ring.Ope("o").status().code(), StatusCode::kInvalidArgument);
}

TEST(KeyringConcurrencyTest, ConcurrentLookupsAgree) {
  KeyManager keys("keyring-test");
  Keyring ring(keys, OpeOptions());
  std::vector<std::thread> threads;
  std::vector<const DetEncryptor*> dets(4);
  std::vector<std::string> images(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      dets[t] = ring.Det("shared").value();
      images[t] = ring.Ope("shared").value()->EncryptToHex(7).value();
      ring.Prf("p" + std::to_string(t % 2));
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 1; t < 4; ++t) {
    EXPECT_EQ(dets[t], dets[0]);
    EXPECT_EQ(images[t], images[0]);
  }
}

}  // namespace
}  // namespace dpe::crypto
