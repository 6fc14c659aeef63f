// HKDF (RFC 5869) over HMAC-SHA256: the key-hierarchy derivation function.

#ifndef DPE_CRYPTO_HKDF_H_
#define DPE_CRYPTO_HKDF_H_

#include <string_view>

#include "common/hex.h"
#include "common/status.h"
#include "crypto/hmac.h"

namespace dpe::crypto {

/// RFC 5869's output bound: 255 blocks of one SHA-256 digest each.
inline constexpr size_t kHkdfMaxLength = 255 * Sha256::kDigestSize;

/// HKDF-Extract: PRK = HMAC(salt, ikm).
Bytes HkdfExtract(std::string_view salt, std::string_view ikm);

/// HKDF-Expand: derives `length` bytes from `prk` under `info`.
/// InvalidArgument if `length` exceeds kHkdfMaxLength.
Result<Bytes> HkdfExpand(const HmacSha256Key& prk, std::string_view info,
                         size_t length);
Result<Bytes> HkdfExpand(std::string_view prk, std::string_view info,
                         size_t length);

/// Extract-then-expand convenience.
Result<Bytes> Hkdf(std::string_view ikm, std::string_view salt,
                   std::string_view info, size_t length);

}  // namespace dpe::crypto

#endif  // DPE_CRYPTO_HKDF_H_
