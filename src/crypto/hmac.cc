#include "crypto/hmac.h"

#include <algorithm>

namespace dpe::crypto {

namespace {
constexpr std::string_view kDomainSeparator("\0", 1);
}  // namespace

HmacSha256Key::HmacSha256Key(std::string_view key) {
  constexpr size_t kBlock = Sha256::kBlockSize;
  Bytes k(kBlock, '\0');
  if (key.size() > kBlock) {
    Bytes digest = Sha256::Digest(key);
    std::copy(digest.begin(), digest.end(), k.begin());
  } else {
    std::copy(key.begin(), key.end(), k.begin());
  }
  Bytes ipad(kBlock, '\0');
  Bytes opad(kBlock, '\0');
  for (size_t i = 0; i < kBlock; ++i) {
    ipad[i] = static_cast<char>(k[i] ^ 0x36);
    opad[i] = static_cast<char>(k[i] ^ 0x5c);
  }
  inner_.Update(ipad);
  outer_.Update(opad);
}

Bytes HmacSha256Key::Mac(std::initializer_list<std::string_view> parts) const {
  Sha256 inner = inner_;
  for (std::string_view part : parts) inner.Update(part);
  Sha256 outer = outer_;
  outer.Update(inner.Finish());
  return outer.Finish();
}

Bytes HmacSha256(std::string_view key, std::string_view message) {
  return HmacSha256Key(key).Mac(message);
}

Bytes Prf(const HmacSha256Key& key, std::string_view label,
          std::string_view input) {
  return key.Mac({label, kDomainSeparator, input});
}

Bytes Prf(std::string_view key, std::string_view label, std::string_view input) {
  return Prf(HmacSha256Key(key), label, input);
}

Bytes PrfExpand(const HmacSha256Key& key, std::string_view label,
                std::string_view input, size_t n) {
  Bytes out;
  out.reserve(n);
  uint32_t counter = 0;
  while (out.size() < n) {
    Bytes block =
        key.Mac({label, kDomainSeparator, EncodeBigEndian64(counter), input});
    out.append(block, 0, std::min(block.size(), n - out.size()));
    ++counter;
  }
  return out;
}

Bytes PrfExpand(std::string_view key, std::string_view label,
                std::string_view input, size_t n) {
  return PrfExpand(HmacSha256Key(key), label, input, n);
}

uint64_t PrfU64(const HmacSha256Key& key, std::string_view label,
                std::string_view input) {
  return DecodeBigEndian64(Prf(key, label, input));
}

uint64_t PrfU64(std::string_view key, std::string_view label,
                std::string_view input) {
  return PrfU64(HmacSha256Key(key), label, input);
}

}  // namespace dpe::crypto
