// Differential tests for BoldyrevaOpe's fixed-width descent: the GMP Bigint
// descent it replaced is kept here, line for line, as a test-only oracle.
// Both must agree on every ciphertext and on every Decrypt verdict, over
// the whole grid of range widths the fixed-width type has to serve —
// including the limb boundaries (64/128/192 bits) and the 256-bit maximum.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "crypto/bigint.h"
#include "crypto/csprng.h"
#include "crypto/hmac.h"
#include "crypto/ope.h"

namespace dpe::crypto {
namespace {

Bigint Pow2(int bits) {
  Bigint one(1);
  for (int i = 0; i < bits; ++i) one += one;
  return one;
}

/// The Bigint descent, as BoldyrevaOpe ran it before its fixed-width
/// rewrite. x must lie in the domain.
class ReferenceOpe {
 public:
  ReferenceOpe(std::string_view key, const BoldyrevaOpe::Options& options)
      : key_(key), options_(options) {}

  Bigint Encrypt(uint64_t x) const {
    Bigint dlo(0);
    Bigint dhi = Pow2(options_.domain_bits) - Bigint(1);
    Bigint rlo(0);
    Bigint rhi = Pow2(options_.range_bits) - Bigint(1);
    Bigint xv = Bigint::FromBytes(EncodeBigEndian64(x));
    for (;;) {
      if (dlo == dhi) {
        return SampleInRange("ope-leaf", NodeId(dlo, dhi, rlo, rhi), rlo, rhi);
      }
      Bigint n = rhi - rlo + Bigint(1);
      Bigint nl = (n + Bigint(1)) / Bigint(2);
      Bigint y = rlo + nl - Bigint(1);
      Bigint ml = SampleSplit(dlo, dhi, rlo, rhi);
      Bigint left_dhi = dlo + ml - Bigint(1);
      if (xv <= left_dhi) {
        dhi = left_dhi;
        rhi = y;
      } else {
        dlo = dlo + ml;
        rlo = y + Bigint(1);
      }
    }
  }

  Result<uint64_t> Decrypt(const Bigint& ciphertext) const {
    Bigint dlo(0);
    Bigint dhi = Pow2(options_.domain_bits) - Bigint(1);
    Bigint rlo(0);
    Bigint rhi = Pow2(options_.range_bits) - Bigint(1);
    if (ciphertext < rlo || ciphertext > rhi) {
      return Status::CryptoError("OPE ciphertext out of range");
    }
    for (;;) {
      if (dlo == dhi) {
        Bigint expected =
            SampleInRange("ope-leaf", NodeId(dlo, dhi, rlo, rhi), rlo, rhi);
        if (expected != ciphertext) {
          return Status::CryptoError("not produced by Encrypt");
        }
        Bytes be = dlo.ToBytes();
        Bytes padded(8 - be.size(), '\0');
        padded += be;
        return DecodeBigEndian64(padded);
      }
      Bigint n = rhi - rlo + Bigint(1);
      Bigint nl = (n + Bigint(1)) / Bigint(2);
      Bigint y = rlo + nl - Bigint(1);
      Bigint ml = SampleSplit(dlo, dhi, rlo, rhi);
      if (ciphertext <= y) {
        if (ml.IsZero()) return Status::CryptoError("empty left subtree");
        dhi = dlo + ml - Bigint(1);
        rhi = y;
      } else {
        if (ml == dhi - dlo + Bigint(1)) {
          return Status::CryptoError("empty right subtree");
        }
        dlo = dlo + ml;
        rlo = y + Bigint(1);
      }
    }
  }

 private:
  static Bytes NodeId(const Bigint& dlo, const Bigint& dhi, const Bigint& rlo,
                      const Bigint& rhi) {
    Bytes id;
    id.append(dlo.ToBytes());
    id.push_back('|');
    id.append(dhi.ToBytes());
    id.push_back('|');
    id.append(rlo.ToBytes());
    id.push_back('|');
    id.append(rhi.ToBytes());
    return id;
  }

  Bigint SampleInRange(std::string_view label, std::string_view input,
                       const Bigint& lo, const Bigint& hi) const {
    Bigint span = hi - lo + Bigint(1);
    size_t nbytes = (span.BitLength() + 7) / 8 + 8;
    Bytes coins = PrfExpand(key_, label, input, nbytes);
    return lo + (Bigint::FromBytes(coins) % span);
  }

  Bigint SampleSplit(const Bigint& dlo, const Bigint& dhi, const Bigint& rlo,
                     const Bigint& rhi) const {
    Bigint m = dhi - dlo + Bigint(1);
    Bigint n = rhi - rlo + Bigint(1);
    Bigint nl = (n + Bigint(1)) / Bigint(2);
    Bigint nr = n - nl;
    Bigint lo = m - nr < Bigint(0) ? Bigint(0) : m - nr;
    Bigint hi = m < nl ? m : nl;
    return SampleInRange("ope-split", NodeId(dlo, dhi, rlo, rhi), lo, hi);
  }

  HmacSha256Key key_;
  BoldyrevaOpe::Options options_;
};

struct Grid {
  int domain_bits;
  int range_bits;
};

std::string Name(const Grid& g) {
  return "d" + std::to_string(g.domain_bits) + "_r" +
         std::to_string(g.range_bits);
}

std::string GridName(const ::testing::TestParamInfo<Grid>& info) {
  return Name(info.param);
}

class OpeDifferentialTest : public ::testing::TestWithParam<Grid> {
 protected:
  BoldyrevaOpe::Options Options() const {
    BoldyrevaOpe::Options opts;
    opts.domain_bits = GetParam().domain_bits;
    opts.range_bits = GetParam().range_bits;
    return opts;
  }

  /// A seeded random key per grid point.
  Bytes Key() const {
    Csprng rng = Csprng::FromSeed("ope-diff-key/" + Name(GetParam()));
    return rng.NextBytes(32);
  }

  /// Domain endpoints plus seeded random plaintexts.
  std::vector<uint64_t> Plaintexts() const {
    const int bits = GetParam().domain_bits;
    const uint64_t mask = bits >= 64 ? ~0ULL : (1ULL << bits) - 1;
    std::vector<uint64_t> xs = {0, 1, mask - 1, mask};
    Csprng rng = Csprng::FromSeed("ope-diff-x/" + Name(GetParam()));
    for (int i = 0; i < 12; ++i) xs.push_back(rng.NextU64() & mask);
    return xs;
  }
};

TEST_P(OpeDifferentialTest, EncryptMatchesBigintDescent) {
  const Bytes key = Key();
  const BoldyrevaOpe ope = BoldyrevaOpe::Create(key, Options()).value();
  const ReferenceOpe reference(key, Options());
  for (uint64_t x : Plaintexts()) {
    const Bigint expected = reference.Encrypt(x);
    EXPECT_EQ(ope.Encrypt(x).value(), expected) << x;
    const std::string hex = ope.EncryptToHex(x).value();
    EXPECT_EQ(hex.size(), static_cast<size_t>(ope.hex_width()));
    EXPECT_EQ(Bigint::FromString("0x" + hex).value(), expected) << x;
  }
}

TEST_P(OpeDifferentialTest, DecryptMatchesBigintDescent) {
  const Bytes key = Key();
  const BoldyrevaOpe ope = BoldyrevaOpe::Create(key, Options()).value();
  const ReferenceOpe reference(key, Options());
  for (uint64_t x : Plaintexts()) {
    const Bigint c = reference.Encrypt(x);
    EXPECT_EQ(ope.Decrypt(c).value(), x);
    // c - 1 and c + 1: both descents must give the same verdict. They are
    // images only when a neighbouring plaintext landed there.
    for (const Bigint& probe : {c - Bigint(1), c + Bigint(1)}) {
      const Result<uint64_t> got = ope.Decrypt(probe);
      const Result<uint64_t> want = reference.Decrypt(probe);
      ASSERT_EQ(got.ok(), want.ok()) << x << " probe " << probe;
      if (got.ok()) {
        EXPECT_EQ(*got, *want);
        EXPECT_EQ(ope.Encrypt(*got).value(), probe);
      } else {
        EXPECT_EQ(got.status().code(), StatusCode::kCryptoError);
      }
    }
  }
  EXPECT_FALSE(ope.Decrypt(Bigint(-1)).ok());
  EXPECT_FALSE(ope.Decrypt(Pow2(GetParam().range_bits)).ok());
}

std::vector<Grid> AllGrid() {
  std::vector<Grid> grid;
  for (int range_bits : {65, 80, 96, 127, 128, 129, 192, 256}) {
    for (int domain_bits : {16, 32, 64}) {
      grid.push_back({domain_bits, range_bits});
    }
  }
  return grid;
}

INSTANTIATE_TEST_SUITE_P(RangeByDomain, OpeDifferentialTest,
                         ::testing::ValuesIn(AllGrid()), GridName);

}  // namespace
}  // namespace dpe::crypto
