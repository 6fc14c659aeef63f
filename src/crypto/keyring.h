// Keyring: the owner's per-purpose encryptors over one KeyManager, each
// derived (HKDF) and keyed (HMAC pads, AES schedule, OPE instance) once and
// then reused. DET and OPE are deterministic, so a reused instance produces
// exactly the ciphertexts a fresh one would; the OPE instances also keep
// their image memo across calls.

#ifndef DPE_CRYPTO_KEYRING_H_
#define DPE_CRYPTO_KEYRING_H_

#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "common/mutex.h"
#include "crypto/det.h"
#include "crypto/hmac.h"
#include "crypto/keys.h"
#include "crypto/ope.h"

namespace dpe::crypto {

/// Lazily built, per-purpose keyed objects. Thread-safe; a returned
/// reference stays valid for the keyring's lifetime. `keys` must outlive it.
class Keyring {
 public:
  Keyring(const KeyManager& keys, const BoldyrevaOpe::Options& ope_options)
      : keys_(&keys), ope_options_(ope_options) {}

  /// DET under Derive(purpose).
  Result<const DetEncryptor*> Det(std::string_view purpose) const;
  /// OPE under Derive(purpose) with the keyring's options.
  Result<const BoldyrevaOpe*> Ope(std::string_view purpose) const;
  /// PRF key Derive(purpose).
  const HmacSha256Key& Prf(std::string_view purpose) const;
  /// The raw 32-byte subkey Derive(purpose) (for PROB, whose encryptor
  /// carries per-call randomness and so is built per use).
  const Bytes& Key(std::string_view purpose) const;

 private:
  template <typename T>
  using ByPurpose = std::map<std::string, T, std::less<>>;

  const KeyManager* keys_;
  BoldyrevaOpe::Options ope_options_;
  mutable Mutex mu_;
  mutable ByPurpose<DetEncryptor> det_ GUARDED_BY(mu_);
  mutable ByPurpose<BoldyrevaOpe> ope_ GUARDED_BY(mu_);
  mutable ByPurpose<HmacSha256Key> prf_ GUARDED_BY(mu_);
  mutable ByPurpose<Bytes> raw_ GUARDED_BY(mu_);
};

}  // namespace dpe::crypto

#endif  // DPE_CRYPTO_KEYRING_H_
