#include "crypto/ope.h"

#include <algorithm>
#include <string>

#include "crypto/hmac.h"
#include "crypto/instrument.h"

namespace dpe::crypto {

namespace {

static_assert(GMP_NUMB_BITS == 64 && sizeof(mp_limb_t) == sizeof(uint64_t),
              "the OPE descent assumes 64-bit GMP limbs without nails");

/// The descent's one integer type: unsigned, 256 bits, four little-endian
/// 64-bit limbs on the stack. Every quantity a descent forms fits: range
/// bounds are below 2^range_bits <= 2^256, domain bounds and counts are at
/// most 2^64, and a range count is only formed below the root (<= 2^255) —
/// the root's 2^range_bits never is, because half sizes come from rhi - rlo.
/// Arithmetic wraps mod 2^256; the descent never relies on that. Add, sub
/// and compare are inline carry chains; only Mod calls into GMP (mpn).
class Uint256 {
 public:
  static constexpr int kLimbs = 4;
  static constexpr size_t kBytes = 32;

  Uint256() = default;
  explicit Uint256(uint64_t v) : limbs_{v, 0, 0, 0} {}

  /// 2^bits - 1 for bits in [1, 256].
  static Uint256 LowMask(int bits) {
    Uint256 out;
    for (int i = 0; i < kLimbs; ++i) {
      const int left = bits - 64 * i;
      out.limbs_[i] = left >= 64 ? ~mp_limb_t{0}
                      : left > 0 ? (mp_limb_t{1} << left) - 1
                                 : 0;
    }
    return out;
  }

  /// Big-endian bytes with at most 32 significant ones.
  static Uint256 FromBigEndian(const unsigned char* p, size_t n) {
    Uint256 out;
    LoadBigEndian(p, n, out.limbs_);
    return out;
  }

  /// (big-endian `n` bytes) mod `span`, span > 0. Coins carry 64 bits more
  /// than the span, so n is at least span's byte length + 8 (which mpn
  /// requires: no fewer numerator limbs than divisor limbs) and at most 40.
  static Uint256 Mod(const unsigned char* p, size_t n, const Uint256& span) {
    constexpr int kWide = kLimbs + 1;
    mp_limb_t num[kWide] = {};
    LoadBigEndian(p, n, num);
    const mp_size_t nn = static_cast<mp_size_t>((n + 7) / 8);
    const mp_size_t dn = span.Limbs();
    Uint256 rem;
    mp_limb_t quotient[kWide] = {};
    mpn_tdiv_qr(quotient, rem.limbs_, 0, num, nn, span.limbs_, dn);
    return rem;
  }

  friend Uint256 operator+(const Uint256& a, const Uint256& b) {
    Uint256 out;
    unsigned __int128 carry = 0;
    for (int i = 0; i < kLimbs; ++i) {
      carry += static_cast<unsigned __int128>(a.limbs_[i]) + b.limbs_[i];
      out.limbs_[i] = static_cast<mp_limb_t>(carry);
      carry >>= 64;
    }
    return out;
  }
  friend Uint256 operator-(const Uint256& a, const Uint256& b) {
    Uint256 out;
    mp_limb_t borrow = 0;
    for (int i = 0; i < kLimbs; ++i) {
      const mp_limb_t x = a.limbs_[i];
      const mp_limb_t y = b.limbs_[i];
      out.limbs_[i] = x - y - borrow;
      borrow = (x < y) | ((x == y) & borrow);
    }
    return out;
  }
  friend Uint256 operator+(const Uint256& a, uint64_t b) {
    return a + Uint256(b);
  }
  friend Uint256 operator-(const Uint256& a, uint64_t b) {
    return a - Uint256(b);
  }
  Uint256 Half() const {
    Uint256 out;
    for (int i = 0; i < kLimbs; ++i) {
      const mp_limb_t above = i + 1 < kLimbs ? limbs_[i + 1] << 63 : 0;
      out.limbs_[i] = (limbs_[i] >> 1) | above;
    }
    return out;
  }

  friend bool operator==(const Uint256& a, const Uint256& b) {
    return Compare(a, b) == 0;
  }
  friend bool operator<(const Uint256& a, const Uint256& b) {
    return Compare(a, b) < 0;
  }
  friend bool operator<=(const Uint256& a, const Uint256& b) {
    return Compare(a, b) <= 0;
  }

  bool IsZero() const { return Limbs() == 0; }
  uint64_t Low64() const { return limbs_[0]; }

  /// Number of significant bits (0 for zero).
  size_t BitLength() const {
    const mp_size_t used = Limbs();
    if (used == 0) return 0;
    return 64 * static_cast<size_t>(used) -
           static_cast<size_t>(__builtin_clzll(limbs_[used - 1]));
  }

  /// Writes the minimal big-endian bytes (none for zero); returns how many.
  size_t WriteMinimalBigEndian(unsigned char* out) const {
    const size_t n = (BitLength() + 7) / 8;
    WriteBigEndian(out, n);
    return n;
  }

  /// Writes the low `width` bytes big-endian (width <= 32).
  void WriteBigEndian(unsigned char* out, size_t width) const {
    size_t limb = width / 8;
    for (size_t b = width % 8; b-- > 0;) {  // the partial top limb
      *out++ = static_cast<unsigned char>(limbs_[limb] >> (8 * b));
    }
    while (limb-- > 0) {
      for (int b = 7; b >= 0; --b) {
        *out++ = static_cast<unsigned char>(limbs_[limb] >> (8 * b));
      }
    }
  }

 private:
  static int Compare(const Uint256& a, const Uint256& b) {
    for (int i = kLimbs - 1; i >= 0; --i) {
      if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
    }
    return 0;
  }

  /// Big-endian `n` bytes into the low ceil(n / 8) little-endian `limbs`.
  static void LoadBigEndian(const unsigned char* p, size_t n,
                            mp_limb_t* limbs) {
    size_t limb = n / 8;
    if (n % 8 != 0) {  // the partial top limb
      mp_limb_t v = 0;
      for (size_t b = 0; b < n % 8; ++b) v = (v << 8) | *p++;
      limbs[limb] = v;
    }
    while (limb-- > 0) {
      mp_limb_t v = 0;
      for (int b = 0; b < 8; ++b) v = (v << 8) | *p++;
      limbs[limb] = v;
    }
  }

  /// Limbs up to the most significant non-zero one.
  mp_size_t Limbs() const {
    mp_size_t used = kLimbs;
    while (used > 0 && limbs_[used - 1] == 0) --used;
    return used;
  }

  mp_limb_t limbs_[kLimbs] = {};
};

/// Coins are at most 40 bytes: a span of at most 256 bits plus 64 more.
constexpr size_t kMaxCoinBytes = Uint256::kBytes + 8;

/// A recursion node: the domain points [dlo, dhi] map into [rlo, rhi].
struct Node {
  Uint256 dlo, dhi, rlo, rhi;

  static Node Root(const BoldyrevaOpe::Options& options) {
    return {Uint256(0), Uint256::LowMask(options.domain_bits), Uint256(0),
            Uint256::LowMask(options.range_bits)};
  }

  bool IsLeaf() const { return dlo == dhi; }
};

/// The node's PRF input: each bound's minimal big-endian bytes (empty for
/// 0), joined with '|'. Fits in `kMaxNodeIdBytes`.
constexpr size_t kMaxNodeIdBytes = 4 * Uint256::kBytes + 3;
std::string_view NodeId(const Node& node, unsigned char* buf) {
  size_t n = node.dlo.WriteMinimalBigEndian(buf);
  buf[n++] = '|';
  n += node.dhi.WriteMinimalBigEndian(buf + n);
  buf[n++] = '|';
  n += node.rlo.WriteMinimalBigEndian(buf + n);
  buf[n++] = '|';
  n += node.rhi.WriteMinimalBigEndian(buf + n);
  return {reinterpret_cast<const char*>(buf), n};
}

/// Deterministic sample in [lo, hi] (inclusive), coins from
/// PRF(key, label, node id). Reduction mod span: the residual bias is
/// irrelevant for order preservation (any deterministic choice in the
/// feasible window yields a valid monotone scheme).
Uint256 SampleInRange(const HmacSha256Key& key, std::string_view label,
                      const Node& node, const Uint256& lo, const Uint256& hi) {
  const Uint256 span = hi - lo + 1;
  const size_t nbytes = (span.BitLength() + 7) / 8 + 8;  // 64 extra bits
  unsigned char id[kMaxNodeIdBytes];
  unsigned char coins[kMaxCoinBytes];
  PrfExpandTo(key, label, NodeId(node, id), coins, nbytes);
  return lo + Uint256::Mod(coins, nbytes, span);
}

/// The leaf's ciphertext: a deterministic point in its remaining range.
Uint256 LeafImage(const HmacSha256Key& key, const Node& node) {
  return SampleInRange(key, "ope-leaf", node, node.rlo, node.rhi);
}

/// An internal node's split of its range into halves.
struct Split {
  Uint256 y;   ///< last ciphertext of the left half
  Uint256 ml;  ///< domain points mapped to the left half
};

/// Halves the node's range (the left half gets ceil(N/2) points) and
/// samples how many domain points go left, uniformly from the feasible
/// window, with coins from the node bounds (never from x).
Split SplitNode(const HmacSha256Key& key, const Node& node) {
  const Uint256 m = node.dhi - node.dlo + 1;  // domain size M
  const Uint256 d = node.rhi - node.rlo;      // range size N, minus 1
  const Uint256 half = d.Half();
  const Uint256 nl = half + 1;  // ceil(N/2)
  const Uint256 nr = d - half;  // floor(N/2)
  // Feasibility window for the number of domain points mapped to the left
  // half: ml <= NL (left stays injective) and M - ml <= NR (right too).
  const Uint256 lo = nr < m ? m - nr : Uint256(0);
  const Uint256 hi = m < nl ? m : nl;
  return {node.rlo + half, SampleInRange(key, "ope-split", node, lo, hi)};
}

/// The tree descent Encrypt memoizes; x must lie in the domain.
Uint256 Descend(const HmacSha256Key& key, const BoldyrevaOpe::Options& options,
                uint64_t x) {
  CryptoSpan span("crypto.ope.encrypt");
  const Uint256 xv(x);
  Node node = Node::Root(options);
  while (!node.IsLeaf()) {
    const Split split = SplitNode(key, node);
    const Uint256 right_dlo = node.dlo + split.ml;
    if (xv < right_dlo) {
      node.dhi = right_dlo - 1;
      node.rhi = split.y;
    } else {
      node.dlo = right_dlo;
      node.rlo = split.y + 1;
    }
  }
  return LeafImage(key, node);
}

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

std::optional<Bytes> BoldyrevaOpe::ImageMemo::Find(uint64_t x) {
  MutexLock lock(mu_);
  auto it = images_.find(x);
  if (it == images_.end()) return std::nullopt;
  return it->second;
}

void BoldyrevaOpe::ImageMemo::Insert(uint64_t x, const Bytes& image) {
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

Result<Bytes> BoldyrevaOpe::Image(uint64_t x) const {
  // An out-of-domain x would descend into empty right subtrees forever.
  if (options_.domain_bits < 64 && (x >> options_.domain_bits) != 0) {
    return Status::InvalidArgument(
        "OPE plaintext " + std::to_string(x) + " is outside the " +
        std::to_string(options_.domain_bits) + "-bit domain");
  }
  DPE_CRYPTO_COUNT("ope", "encrypt");  // memo hits count too
  if (std::optional<Bytes> image = memo_.Find(x)) return *std::move(image);
  Bytes image(static_cast<size_t>(hex_width() / 2), '\0');
  Descend(key_, options_, x)
      .WriteBigEndian(reinterpret_cast<unsigned char*>(image.data()),
                      image.size());
  memo_.Insert(x, image);
  return image;
}

Result<Bigint> BoldyrevaOpe::Encrypt(uint64_t x) const {
  DPE_ASSIGN_OR_RETURN(Bytes image, Image(x));
  return Bigint::FromBytes(image);
}

Result<std::string> BoldyrevaOpe::EncryptToHex(uint64_t x) const {
  DPE_ASSIGN_OR_RETURN(Bytes image, Image(x));
  return HexEncode(image);
}

Result<uint64_t> BoldyrevaOpe::Decrypt(const Bigint& ciphertext) const {
  DPE_CRYPTO_COUNT("ope", "decrypt");
  CryptoSpan span("crypto.ope.decrypt");
  if (ciphertext.IsNegative() ||
      ciphertext.BitLength() > static_cast<size_t>(options_.range_bits)) {
    return Status::CryptoError("OPE ciphertext out of range");
  }
  const Bytes be = ciphertext.ToBytes();
  const Uint256 ct = Uint256::FromBigEndian(
      reinterpret_cast<const unsigned char*>(be.data()), be.size());

  Node node = Node::Root(options_);
  while (!node.IsLeaf()) {
    const Split split = SplitNode(key_, node);
    if (ct <= split.y) {
      if (split.ml.IsZero()) {
        return Status::CryptoError("OPE ciphertext in empty left subtree");
      }
      node.dhi = node.dlo + split.ml - 1;
      node.rhi = split.y;
    } else {
      if (split.ml == node.dhi - node.dlo + 1) {
        return Status::CryptoError("OPE ciphertext in empty right subtree");
      }
      node.dlo = node.dlo + split.ml;
      node.rlo = split.y + 1;
    }
  }
  if (LeafImage(key_, node) != ct) {
    return Status::CryptoError("OPE ciphertext was not produced by Encrypt");
  }
  return node.dlo.Low64();
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
