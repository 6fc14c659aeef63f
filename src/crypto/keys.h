// Key hierarchy: one master key, HKDF-derived per-purpose subkeys.
//
// The paper's high-level scheme (EncRel, EncAttr, {EncA.Const : Attribute A})
// is keyed through this manager: purposes are strings like "rel", "attr",
// "const/<attribute>" or "const/@global", and onion layers use
// "onion/<column>/<layer>". Distinct purposes yield independent keys.

#ifndef DPE_CRYPTO_KEYS_H_
#define DPE_CRYPTO_KEYS_H_

#include <string>
#include <string_view>

#include "common/hex.h"
#include "common/status.h"
#include "crypto/hmac.h"

namespace dpe::crypto {

class KeyManager {
 public:
  /// Wraps existing high-entropy key material (any length; HKDF-extracted).
  explicit KeyManager(std::string_view master_key);

  /// Derives a 32-byte subkey for `purpose`.
  Bytes Derive(std::string_view purpose) const;

  /// Derives `n` bytes for `purpose`; InvalidArgument past HKDF's
  /// 255 * 32-byte output bound.
  Result<Bytes> DeriveN(std::string_view purpose, size_t n) const;

  /// Deterministic manager from a human-secret (PBKDF-lite: salted HKDF).
  /// Fine for experiments; use real PBKDF2/argon2 for production passwords.
  static KeyManager FromPassword(std::string_view password);

 private:
  HmacSha256Key prk_;  // HKDF PRK, keyed once
};

}  // namespace dpe::crypto

#endif  // DPE_CRYPTO_KEYS_H_
