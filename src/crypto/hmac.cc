#include "crypto/hmac.h"

#include <algorithm>

namespace dpe::crypto {

namespace {
constexpr std::string_view kDomainSeparator("\0", 1);
}  // namespace

HmacSha256Key::HmacSha256Key(std::string_view key, Sha256::CompressFn compress)
    : inner_(compress), outer_(compress) {
  constexpr size_t kBlock = Sha256::kBlockSize;
  Bytes k(kBlock, '\0');
  if (key.size() > kBlock) {
    Sha256 digest(compress);
    digest.Update(key);
    digest.FinishTo(reinterpret_cast<unsigned char*>(k.data()));
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
  Bytes tag(Sha256::kDigestSize, '\0');
  MacTo(parts, reinterpret_cast<unsigned char*>(tag.data()));
  return tag;
}

void HmacSha256Key::MacTo(std::initializer_list<std::string_view> parts,
                          unsigned char* out) const {
  Sha256 inner = inner_;
  for (std::string_view part : parts) inner.Update(part);
  unsigned char inner_tag[Sha256::kDigestSize];
  inner.FinishTo(inner_tag);
  Sha256 outer = outer_;
  outer.Update(std::string_view(reinterpret_cast<const char*>(inner_tag),
                                sizeof(inner_tag)));
  outer.FinishTo(out);
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
  Bytes out(n, '\0');
  PrfExpandTo(key, label, input, reinterpret_cast<unsigned char*>(out.data()),
              n);
  return out;
}

void PrfExpandTo(const HmacSha256Key& key, std::string_view label,
                 std::string_view input, unsigned char* out, size_t n) {
  unsigned char block[Sha256::kDigestSize];
  uint64_t counter = 0;
  for (size_t done = 0; done < n; done += sizeof(block), ++counter) {
    char counter_be[8];
    for (int i = 0; i < 8; ++i) {
      counter_be[i] = static_cast<char>(counter >> (56 - 8 * i));
    }
    key.MacTo({label, kDomainSeparator, std::string_view(counter_be, 8), input},
              block);
    std::copy_n(block, std::min(sizeof(block), n - done), out + done);
  }
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
