#include "crypto/ope.h"

#include <algorithm>

#include "crypto/hmac.h"
#include "crypto/instrument.h"

namespace dpe::crypto {

namespace {

Bytes NodeId(const Bigint& dlo, const Bigint& dhi, const Bigint& rlo,
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

Bigint Pow2(int bits) {
  Bigint one(1);
  for (int i = 0; i < bits; ++i) one += one;
  return one;
}

Bigint Min(const Bigint& a, const Bigint& b) { return a < b ? a : b; }
Bigint Max(const Bigint& a, const Bigint& b) { return a < b ? b : a; }

}  // namespace

BoldyrevaOpe::ImageMemo& BoldyrevaOpe::ImageMemo::operator=(
    const ImageMemo& other) {
  // The images belong to the old key: never keep them, never take other's.
  if (this != &other) {
    MutexLock lock(mu_);
    images_.clear();
  }
  return *this;
}

std::optional<Bigint> BoldyrevaOpe::ImageMemo::Find(uint64_t x) {
  MutexLock lock(mu_);
  auto it = images_.find(x);
  if (it == images_.end()) return std::nullopt;
  return it->second;
}

void BoldyrevaOpe::ImageMemo::Insert(uint64_t x, const Bigint& image) {
  MutexLock lock(mu_);
  images_.emplace(x, image);
}

BoldyrevaOpe::BoldyrevaOpe(std::string_view key, const Options& options)
    : key_(key), options_(options) {}

Result<BoldyrevaOpe> BoldyrevaOpe::Create(std::string_view key) {
  return Create(key, Options{});
}

Result<BoldyrevaOpe> BoldyrevaOpe::Create(std::string_view key,
                                          const Options& options) {
  if (key.size() != 32) {
    return Status::CryptoError("BoldyrevaOpe requires a 32-byte key");
  }
  if (options.domain_bits < 1 || options.domain_bits > 64) {
    return Status::InvalidArgument("domain_bits must be in [1, 64]");
  }
  if (options.range_bits <= options.domain_bits || options.range_bits > 256) {
    return Status::InvalidArgument(
        "range_bits must exceed domain_bits (and be <= 256)");
  }
  return BoldyrevaOpe(key, options);
}

Bigint BoldyrevaOpe::SampleInRange(std::string_view label,
                                   std::string_view input, const Bigint& lo,
                                   const Bigint& hi) const {
  // Reduction mod span: the residual bias is irrelevant for order
  // preservation (any deterministic choice in the feasible window yields a
  // valid monotone scheme).
  Bigint span = hi - lo + Bigint(1);
  size_t nbytes = (span.BitLength() + 7) / 8 + 8;  // 64 extra bits vs span
  Bytes coins = PrfExpand(key_, label, input, nbytes);
  return lo + (Bigint::FromBytes(coins) % span);
}

Bigint BoldyrevaOpe::SampleSplit(const Bigint& dlo, const Bigint& dhi,
                                 const Bigint& rlo, const Bigint& rhi) const {
  // Domain size M, range size N, left range size NL = ceil(N/2).
  Bigint m = dhi - dlo + Bigint(1);
  Bigint n = rhi - rlo + Bigint(1);
  Bigint nl = (n + Bigint(1)) / Bigint(2);
  Bigint nr = n - nl;
  // Feasibility window for the number of domain points mapped to the left
  // half: ml <= NL (left stays injective) and M - ml <= NR (right too).
  Bigint lo = Max(Bigint(0), m - nr);
  Bigint hi = Min(m, nl);
  return SampleInRange("ope-split", NodeId(dlo, dhi, rlo, rhi), lo, hi);
}

Bigint BoldyrevaOpe::Encrypt(uint64_t x) const {
  DPE_CRYPTO_COUNT("ope", "encrypt");  // memo hits count too
  if (std::optional<Bigint> image = memo_.Find(x)) return *std::move(image);
  Bigint image = Descend(x);
  memo_.Insert(x, image);
  return image;
}

Bigint BoldyrevaOpe::Descend(uint64_t x) const {
  CryptoSpan span("crypto.ope.encrypt");
  Bigint dlo(0);
  Bigint dhi = Pow2(options_.domain_bits) - Bigint(1);
  Bigint rlo(0);
  Bigint rhi = Pow2(options_.range_bits) - Bigint(1);
  Bigint xv = Bigint::FromBytes(EncodeBigEndian64(x));

  for (;;) {
    if (dlo == dhi) {
      // Leaf: a deterministic point in the remaining range.
      return SampleInRange("ope-leaf", NodeId(dlo, dhi, rlo, rhi), rlo, rhi);
    }
    Bigint n = rhi - rlo + Bigint(1);
    Bigint nl = (n + Bigint(1)) / Bigint(2);
    Bigint y = rlo + nl - Bigint(1);  // last ciphertext of the left half
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

Result<uint64_t> BoldyrevaOpe::Decrypt(const Bigint& ciphertext) const {
  DPE_CRYPTO_COUNT("ope", "decrypt");
  CryptoSpan span("crypto.ope.decrypt");
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
        return Status::CryptoError("OPE ciphertext was not produced by Encrypt");
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
      if (ml.IsZero()) {
        return Status::CryptoError("OPE ciphertext in empty left subtree");
      }
      dhi = dlo + ml - Bigint(1);
      rhi = y;
    } else {
      if (ml == dhi - dlo + Bigint(1)) {
        return Status::CryptoError("OPE ciphertext in empty right subtree");
      }
      dlo = dlo + ml;
      rlo = y + Bigint(1);
    }
  }
}

std::string BoldyrevaOpe::EncryptToHex(uint64_t x) const {
  Bytes ct = Encrypt(x).ToBytes();
  std::string hex = HexEncode(ct);
  std::string out(static_cast<size_t>(hex_width()) - hex.size(), '0');
  out += hex;
  return out;
}

Result<DictionaryOpe> DictionaryOpe::Create(std::string_view key) {
  if (key.size() != 32) {
    return Status::CryptoError("DictionaryOpe requires a 32-byte key");
  }
  return DictionaryOpe(key);
}

Status DictionaryOpe::BuildFromDomain(std::vector<Bytes> domain) {
  std::sort(domain.begin(), domain.end());
  domain.erase(std::unique(domain.begin(), domain.end()), domain.end());
  code_.clear();
  reverse_.clear();
  uint64_t cursor = 0;
  for (const Bytes& value : domain) {
    uint64_t gap = 1 + PrfU64(key_, "dope-gap", value) % kGap;
    cursor += gap;
    code_[value] = cursor;
    reverse_[cursor] = value;
  }
  return Status::OK();
}

Result<uint64_t> DictionaryOpe::Encrypt(std::string_view value) const {
  DPE_CRYPTO_COUNT("ope_dict", "encrypt");
  auto it = code_.find(Bytes(value));
  if (it == code_.end()) {
    return Status::NotFound("value not in OPE code book");
  }
  return it->second;
}

Status DictionaryOpe::Insert(const Bytes& value) {
  if (code_.contains(value)) return Status::OK();
  auto next = code_.upper_bound(value);
  uint64_t lo = 0;
  uint64_t hi;
  if (next == code_.end()) {
    hi = (code_.empty() ? 0 : code_.rbegin()->second) + 2 * kGap;
  } else {
    hi = next->second;
  }
  if (next != code_.begin() && !code_.empty()) {
    auto prev = std::prev(next);
    lo = prev->second;
  }
  if (hi - lo < 2) {
    return Status::OutOfRange("OPE gap exhausted between neighbours");
  }
  uint64_t ct = lo + (hi - lo) / 2;
  code_[value] = ct;
  reverse_[ct] = value;
  return Status::OK();
}

Result<Bytes> DictionaryOpe::Decrypt(uint64_t ciphertext) const {
  DPE_CRYPTO_COUNT("ope_dict", "decrypt");
  auto it = reverse_.find(ciphertext);
  if (it == reverse_.end()) {
    return Status::NotFound("ciphertext not in OPE code book");
  }
  return it->second;
}

}  // namespace dpe::crypto
