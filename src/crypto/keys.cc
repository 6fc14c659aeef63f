#include "crypto/keys.h"

#include "crypto/hkdf.h"

namespace dpe::crypto {

namespace {
constexpr char kSalt[] = "kit-dpe/key-hierarchy/v1";
}  // namespace

KeyManager::KeyManager(std::string_view master_key)
    : prk_(HkdfExtract(kSalt, master_key)) {}

Bytes KeyManager::Derive(std::string_view purpose) const {
  return DeriveN(purpose, 32).value();  // 32 bytes is always within bound
}

Result<Bytes> KeyManager::DeriveN(std::string_view purpose, size_t n) const {
  return HkdfExpand(prk_, purpose, n);
}

KeyManager KeyManager::FromPassword(std::string_view password) {
  // Stretch slightly by iterated extraction; experiments only.
  Bytes k(password);
  for (int i = 0; i < 1024; ++i) k = HkdfExtract(kSalt, k);
  return KeyManager(k);
}

}  // namespace dpe::crypto
