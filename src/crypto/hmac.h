// HMAC-SHA256 (RFC 2104 / FIPS 198-1). The library's workhorse PRF.

#ifndef DPE_CRYPTO_HMAC_H_
#define DPE_CRYPTO_HMAC_H_

#include <initializer_list>
#include <string_view>

#include "common/hex.h"
#include "crypto/sha256.h"

namespace dpe::crypto {

/// An HMAC-SHA256 key with its ipad and opad blocks absorbed once, so each
/// MAC under it costs two SHA-256 compressions fewer than keying from raw
/// bytes. The one HMAC implementation: the free functions below wrap it.
class HmacSha256Key {
 public:
  explicit HmacSha256Key(std::string_view key)
      : HmacSha256Key(key, Sha256::DefaultCompressor().fn) {}
  /// Keyed with every hash compressed by `compress` (tests and benches pin
  /// one of Sha256::RunnableCompressors this way).
  HmacSha256Key(std::string_view key, Sha256::CompressFn compress);

  /// HMAC-SHA256(key, parts[0] || parts[1] || ...); the 32-byte tag.
  Bytes Mac(std::initializer_list<std::string_view> parts) const;
  Bytes Mac(std::string_view message) const { return Mac({message}); }

  /// Mac() into `out` (Sha256::kDigestSize bytes), without allocating.
  void MacTo(std::initializer_list<std::string_view> parts,
             unsigned char* out) const;

 private:
  Sha256 inner_;  // has absorbed key ^ ipad
  Sha256 outer_;  // has absorbed key ^ opad
};

/// Computes HMAC-SHA256(key, message); returns the 32-byte tag.
Bytes HmacSha256(std::string_view key, std::string_view message);

/// PRF view of HMAC: F_key(label || input). The label separates domains so
/// that the same key can safely serve different purposes.
Bytes Prf(const HmacSha256Key& key, std::string_view label,
          std::string_view input);
Bytes Prf(std::string_view key, std::string_view label, std::string_view input);

/// PRF output truncated/expanded to exactly `n` bytes (counter mode over
/// HMAC, NIST SP 800-108 style).
Bytes PrfExpand(const HmacSha256Key& key, std::string_view label,
                std::string_view input, size_t n);
Bytes PrfExpand(std::string_view key, std::string_view label,
                std::string_view input, size_t n);
/// PrfExpand into `out` (n bytes), without allocating.
void PrfExpandTo(const HmacSha256Key& key, std::string_view label,
                 std::string_view input, unsigned char* out, size_t n);

/// PRF mapped to a uint64 (first 8 bytes, big-endian).
uint64_t PrfU64(const HmacSha256Key& key, std::string_view label,
                std::string_view input);
uint64_t PrfU64(std::string_view key, std::string_view label,
                std::string_view input);

}  // namespace dpe::crypto

#endif  // DPE_CRYPTO_HMAC_H_
