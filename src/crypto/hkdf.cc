#include "crypto/hkdf.h"

#include <algorithm>
#include <string>

namespace dpe::crypto {

Bytes HkdfExtract(std::string_view salt, std::string_view ikm) {
  Bytes effective_salt =
      salt.empty() ? Bytes(Sha256::kDigestSize, '\0') : Bytes(salt);
  return HmacSha256(effective_salt, ikm);
}

Result<Bytes> HkdfExpand(const HmacSha256Key& prk, std::string_view info,
                         size_t length) {
  // The block counter is one byte: past 255 blocks it would wrap and the
  // output would stop being RFC 5869's.
  if (length > kHkdfMaxLength) {
    return Status::InvalidArgument("HKDF-Expand length " +
                                   std::to_string(length) + " exceeds " +
                                   std::to_string(kHkdfMaxLength) + " bytes");
  }
  Bytes out;
  out.reserve(length);
  Bytes t;
  for (unsigned char counter = 1; out.size() < length; ++counter) {
    const std::string_view block_index(reinterpret_cast<char*>(&counter), 1);
    t = prk.Mac({t, info, block_index});
    out.append(t, 0, std::min(t.size(), length - out.size()));
  }
  return out;
}

Result<Bytes> HkdfExpand(std::string_view prk, std::string_view info,
                         size_t length) {
  return HkdfExpand(HmacSha256Key(prk), info, length);
}

Result<Bytes> Hkdf(std::string_view ikm, std::string_view salt,
                   std::string_view info, size_t length) {
  return HkdfExpand(HkdfExtract(salt, ikm), info, length);
}

}  // namespace dpe::crypto
