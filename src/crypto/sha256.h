// SHA-256 (FIPS 180-4), implemented from scratch. Used as the PRF/KDF core
// for deterministic encryption IVs, HKDF key derivation and OPE coins.
//
// Two block-compression routines produce the same digests:
//  * portable — the FIPS 180-4 round loop, compiled everywhere;
//  * SHA-NI   — the x86 SHA extensions (sha256rnds2/msg1/msg2), about 2.5x
//               faster per block; compiled on x86 unless -DDPE_DISABLE_SIMD.
// A context compresses with the routine common/simd's dispatch picks
// (common::simd::UseShaExtensions): SHA-NI only where the CPU reports
// `sha` and DPE_KERNEL_BACKEND is not "scalar". Tests and benches can pin
// either routine through the CompressFn constructor.

#ifndef DPE_CRYPTO_SHA256_H_
#define DPE_CRYPTO_SHA256_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/hex.h"

namespace dpe::crypto {

/// Incremental SHA-256 context.
class Sha256 {
 public:
  static constexpr size_t kDigestSize = 32;
  static constexpr size_t kBlockSize = 64;

  /// Absorbs `nblocks` consecutive 64-byte blocks into `state`.
  using CompressFn = void (*)(uint32_t* state, const unsigned char* blocks,
                              size_t nblocks);

  /// A named compress routine ("portable", "sha-ni").
  struct Compressor {
    const char* name;
    CompressFn fn;
  };

  /// The routine default-constructed contexts use; resolved once.
  static const Compressor& DefaultCompressor();

  /// Every routine compiled in and runnable on this CPU, portable first.
  static const std::vector<Compressor>& RunnableCompressors();

  Sha256() : Sha256(DefaultCompressor().fn) {}
  explicit Sha256(CompressFn compress);

  /// Absorbs more input.
  void Update(std::string_view data);

  /// Finalizes and returns the 32-byte digest. The context must not be
  /// reused afterwards (construct a fresh one).
  Bytes Finish();

  /// Finish() into `out` (kDigestSize bytes), without allocating.
  void FinishTo(unsigned char* out);

  /// One-shot convenience.
  static Bytes Digest(std::string_view data);

 private:
  CompressFn compress_;
  uint32_t h_[8];
  unsigned char buffer_[kBlockSize];
  size_t buffer_len_ = 0;
  uint64_t total_len_ = 0;
  bool finished_ = false;
};

}  // namespace dpe::crypto

#endif  // DPE_CRYPTO_SHA256_H_
