// Property sweeps for the OPE instances: determinism, strict monotonicity
// and round-trip over a grid of (domain_bits, range_bits) configurations.

#include <gtest/gtest.h>

#include "crypto/csprng.h"
#include "crypto/keys.h"
#include "crypto/ope.h"

namespace dpe::crypto {
namespace {

struct OpeConfig {
  int domain_bits;
  int range_bits;
};

class OpePropertyTest : public ::testing::TestWithParam<OpeConfig> {
 protected:
  BoldyrevaOpe Make() const {
    BoldyrevaOpe::Options opts;
    opts.domain_bits = GetParam().domain_bits;
    opts.range_bits = GetParam().range_bits;
    static KeyManager keys("ope-property");
    return BoldyrevaOpe::Create(keys.Derive("sweep"), opts).value();
  }

  uint64_t DomainMask() const {
    int bits = GetParam().domain_bits;
    return bits >= 64 ? ~0ULL : ((1ULL << bits) - 1);
  }
};

TEST_P(OpePropertyTest, MonotoneAndDeterministicOnRandomPairs) {
  BoldyrevaOpe ope = Make();
  Csprng rng = Csprng::FromSeed("prop-pairs");
  for (int i = 0; i < 60; ++i) {
    uint64_t a = rng.NextU64() & DomainMask();
    uint64_t b = rng.NextU64() & DomainMask();
    Bigint ca = ope.Encrypt(a).value();
    Bigint cb = ope.Encrypt(b).value();
    EXPECT_EQ(a < b, ca < cb) << a << " vs " << b;
    EXPECT_EQ(ca, ope.Encrypt(a).value());
  }
}

TEST_P(OpePropertyTest, RoundTripAndRangeBound) {
  BoldyrevaOpe ope = Make();
  Csprng rng = Csprng::FromSeed("prop-rt");
  Bigint two(2);
  Bigint range_size(1);
  for (int i = 0; i < GetParam().range_bits; ++i) range_size = range_size * two;
  for (int i = 0; i < 25; ++i) {
    uint64_t x = rng.NextU64() & DomainMask();
    Bigint ct = ope.Encrypt(x).value();
    EXPECT_FALSE(ct.IsNegative());
    EXPECT_LT(ct, range_size);
    EXPECT_EQ(ope.Decrypt(ct).value(), x);
  }
}

TEST_P(OpePropertyTest, HexWidthFixedAndOrdered) {
  BoldyrevaOpe ope = Make();
  Csprng rng = Csprng::FromSeed("prop-hex");
  uint64_t prev = 0;
  std::string prev_hex;
  for (int i = 0; i < 20; ++i) {
    uint64_t x = (prev + 1 + rng.NextBelow(DomainMask() / 32 + 1)) & DomainMask();
    if (x <= prev) break;  // wrapped; stop
    std::string hex = ope.EncryptToHex(x).value();
    EXPECT_EQ(hex.size(), static_cast<size_t>(ope.hex_width()));
    if (!prev_hex.empty()) EXPECT_LT(prev_hex, hex);
    prev = x;
    prev_hex = hex;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, OpePropertyTest,
    ::testing::Values(OpeConfig{8, 16}, OpeConfig{16, 24}, OpeConfig{32, 48},
                      OpeConfig{48, 64}, OpeConfig{64, 96},
                      OpeConfig{64, 128}),
    [](const ::testing::TestParamInfo<OpeConfig>& info) {
      return "d" + std::to_string(info.param.domain_bits) + "_r" +
             std::to_string(info.param.range_bits);
    });

}  // namespace
}  // namespace dpe::crypto
