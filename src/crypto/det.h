// DET instance: SIV-style deterministic encryption.
//   IV  = HMAC(K_mac, plaintext)[0..16)
//   ct  = IV || AES-CTR_{K_enc}(IV, plaintext)
// Deterministic (equal plaintexts -> equal ciphertexts), the IV doubles as an
// integrity tag (checked on decryption), and distinct plaintexts collide only
// with HMAC-collision probability.

#ifndef DPE_CRYPTO_DET_H_
#define DPE_CRYPTO_DET_H_

#include "crypto/aes.h"
#include "crypto/hmac.h"
#include "crypto/scheme.h"

namespace dpe::crypto {

/// Deterministic encryption (class DET of Fig. 1).
class DetEncryptor final : public ValueEncryptor {
 public:
  /// `key` must be 32 bytes; it is split internally into MAC and ENC halves.
  static Result<DetEncryptor> Create(std::string_view key);

  Bytes Encrypt(std::string_view plaintext) override;
  /// Encrypt is const-usable for DET; exposed for const contexts.
  Bytes EncryptConst(std::string_view plaintext) const;
  Result<Bytes> Decrypt(std::string_view ciphertext) const override;
  bool deterministic() const override { return true; }
  PpeClass ppe_class() const override { return PpeClass::kDet; }

 private:
  DetEncryptor(HmacSha256Key mac_key, Aes aes)
      : mac_key_(std::move(mac_key)), aes_(std::move(aes)) {}

  HmacSha256Key mac_key_;
  Aes aes_;
};

}  // namespace dpe::crypto

#endif  // DPE_CRYPTO_DET_H_
