#include "crypto/keyring.h"

namespace dpe::crypto {

Result<const DetEncryptor*> Keyring::Det(std::string_view purpose) const {
  MutexLock lock(mu_);
  auto it = det_.find(purpose);
  if (it == det_.end()) {
    DPE_ASSIGN_OR_RETURN(DetEncryptor det,
                         DetEncryptor::Create(keys_->Derive(purpose)));
    it = det_.emplace(std::string(purpose), std::move(det)).first;
  }
  return &it->second;
}

Result<const BoldyrevaOpe*> Keyring::Ope(std::string_view purpose) const {
  MutexLock lock(mu_);
  auto it = ope_.find(purpose);
  if (it == ope_.end()) {
    DPE_ASSIGN_OR_RETURN(
        BoldyrevaOpe ope,
        BoldyrevaOpe::Create(keys_->Derive(purpose), ope_options_));
    it = ope_.emplace(std::string(purpose), std::move(ope)).first;
  }
  return &it->second;
}

const HmacSha256Key& Keyring::Prf(std::string_view purpose) const {
  MutexLock lock(mu_);
  auto it = prf_.find(purpose);
  if (it == prf_.end()) {
    it = prf_.emplace(std::string(purpose),
                      HmacSha256Key(keys_->Derive(purpose)))
             .first;
  }
  return it->second;
}

const Bytes& Keyring::Key(std::string_view purpose) const {
  MutexLock lock(mu_);
  auto it = raw_.find(purpose);
  if (it == raw_.end()) {
    it = raw_.emplace(std::string(purpose), keys_->Derive(purpose)).first;
  }
  return it->second;
}

}  // namespace dpe::crypto
