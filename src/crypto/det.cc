#include "crypto/det.h"

#include "crypto/instrument.h"

namespace dpe::crypto {

Result<DetEncryptor> DetEncryptor::Create(std::string_view key) {
  if (key.size() != 32) {
    return Status::CryptoError("DetEncryptor requires a 32-byte key");
  }
  DPE_ASSIGN_OR_RETURN(Aes aes, Aes::Create(key.substr(16, 16)));
  return DetEncryptor(HmacSha256Key(key.substr(0, 16)), std::move(aes));
}

Bytes DetEncryptor::EncryptConst(std::string_view plaintext) const {
  DPE_CRYPTO_COUNT("det", "encrypt");
  DPE_CRYPTO_COUNT_BYTES("det", plaintext.size());
  Bytes iv = Prf(mac_key_, "det-siv", plaintext).substr(0, Aes::kBlockSize);
  Bytes body = aes_.CtrXcrypt(iv, plaintext);
  return iv + body;
}

Bytes DetEncryptor::Encrypt(std::string_view plaintext) {
  return EncryptConst(plaintext);
}

Result<Bytes> DetEncryptor::Decrypt(std::string_view ciphertext) const {
  DPE_CRYPTO_COUNT("det", "decrypt");
  if (ciphertext.size() < Aes::kBlockSize) {
    return Status::CryptoError("DET ciphertext shorter than IV");
  }
  std::string_view iv = ciphertext.substr(0, Aes::kBlockSize);
  Bytes plaintext = aes_.CtrXcrypt(iv, ciphertext.substr(Aes::kBlockSize));
  // SIV check: recomputed IV must match, else the ciphertext was tampered.
  Bytes expected_iv =
      Prf(mac_key_, "det-siv", plaintext).substr(0, Aes::kBlockSize);
  if (!ConstantTimeEquals(iv, expected_iv)) {
    return Status::CryptoError("DET ciphertext failed SIV integrity check");
  }
  return plaintext;
}

}  // namespace dpe::crypto
