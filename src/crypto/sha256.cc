#include "crypto/sha256.h"

#include <algorithm>
#include <cstring>

#include "common/simd.h"

#if DPE_SIMD_X86
#include <immintrin.h>
#endif

namespace dpe::crypto {

namespace {

constexpr uint32_t kRoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

void CompressPortable(uint32_t* state, const unsigned char* blocks,
                      size_t nblocks) {
  for (; nblocks > 0; --nblocks, blocks += Sha256::kBlockSize) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(blocks[4 * i]) << 24) |
             (static_cast<uint32_t>(blocks[4 * i + 1]) << 16) |
             (static_cast<uint32_t>(blocks[4 * i + 2]) << 8) |
             static_cast<uint32_t>(blocks[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if DPE_SIMD_X86

// The x86 SHA extensions keep the state as two vectors, ABEF and CDGH;
// sha256rnds2 runs two rounds, so each 4-word message vector (plus its
// round constants) feeds two calls, the second on the high half. Words
// 16..63 come from msg1/msg2 over the previous four message vectors:
//   W[t..t+3] = msg2(msg1(W[t-16..], W[t-12..]) + W[t-7..t-4], W[t-4..]).
__attribute__((target("sha,sse4.1"))) void CompressShaNi(
    uint32_t* state, const unsigned char* blocks, size_t nblocks) {
  // Big-endian words -> little-endian lanes.
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i cdgh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);            // CDAB
  cdgh = _mm_shuffle_epi32(cdgh, 0x1B);          // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);  // ABEF
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);       // CDGH

  for (; nblocks > 0; --nblocks, blocks += Sha256::kBlockSize) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
#pragma GCC unroll 16
    for (int q = 0; q < 16; ++q) {
      __m128i& cur = w[q & 3];
      if (q < 4) {
        cur = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * q)),
            byte_swap);
      } else {
        const __m128i prev = w[(q - 1) & 3];
        cur = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(cur, w[(q - 3) & 3]),
                          _mm_alignr_epi8(prev, w[(q - 2) & 3], 4)),
            prev);
      }
      __m128i msg = _mm_add_epi32(
          cur, _mm_loadu_si128(
                   reinterpret_cast<const __m128i*>(&kRoundConstants[4 * q])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
      msg = _mm_shuffle_epi32(msg, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, msg);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);       // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);      // DCHG
  abef = _mm_blend_epi16(tmp, cdgh, 0xF0);   // DCBA
  cdgh = _mm_alignr_epi8(cdgh, tmp, 8);      // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), abef);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), cdgh);
}

#endif  // DPE_SIMD_X86

constexpr Sha256::Compressor kPortable{"portable", CompressPortable};
#if DPE_SIMD_X86
constexpr Sha256::Compressor kShaNi{"sha-ni", CompressShaNi};
#endif

}  // namespace

const Sha256::Compressor& Sha256::DefaultCompressor() {
#if DPE_SIMD_X86
  static const Compressor& chosen =
      common::simd::UseShaExtensions() ? kShaNi : kPortable;
  return chosen;
#else
  return kPortable;
#endif
}

const std::vector<Sha256::Compressor>& Sha256::RunnableCompressors() {
  static const std::vector<Compressor> runnable = [] {
    std::vector<Compressor> v{kPortable};
#if DPE_SIMD_X86
    if (common::simd::ShaExtensionsRunnable()) v.push_back(kShaNi);
#endif
    return v;
  }();
  return runnable;
}

Sha256::Sha256(CompressFn compress) : compress_(compress) {
  static constexpr uint32_t kInit[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                        0xa54ff53a, 0x510e527f, 0x9b05688c,
                                        0x1f83d9ab, 0x5be0cd19};
  std::memcpy(h_, kInit, sizeof(h_));
}

void Sha256::Update(std::string_view data) {
  total_len_ += data.size();
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  if (buffer_len_ > 0) {
    size_t take = std::min(n, kBlockSize - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    n -= take;
    if (buffer_len_ == kBlockSize) {
      compress_(h_, buffer_, 1);
      buffer_len_ = 0;
    }
  }
  if (n >= kBlockSize) {
    const size_t nblocks = n / kBlockSize;
    compress_(h_, p, nblocks);
    p += nblocks * kBlockSize;
    n -= nblocks * kBlockSize;
  }
  if (n > 0) {
    std::memcpy(buffer_, p, n);
    buffer_len_ = n;
  }
}

Bytes Sha256::Finish() {
  Bytes out(kDigestSize, '\0');
  FinishTo(reinterpret_cast<unsigned char*>(out.data()));
  return out;
}

void Sha256::FinishTo(unsigned char* out) {
  finished_ = true;
  const uint64_t bit_len = total_len_ * 8;
  // Padding: 0x80, zeros, 8-byte big-endian bit length.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > kBlockSize - 8) {
    std::memset(buffer_ + buffer_len_, 0, kBlockSize - buffer_len_);
    compress_(h_, buffer_, 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, kBlockSize - 8 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[kBlockSize - 8 + i] =
        static_cast<unsigned char>(bit_len >> (56 - 8 * i));
  }
  compress_(h_, buffer_, 1);

  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<unsigned char>((h_[i] >> 24) & 0xff);
    out[4 * i + 1] = static_cast<unsigned char>((h_[i] >> 16) & 0xff);
    out[4 * i + 2] = static_cast<unsigned char>((h_[i] >> 8) & 0xff);
    out[4 * i + 3] = static_cast<unsigned char>(h_[i] & 0xff);
  }
}

Bytes Sha256::Digest(std::string_view data) {
  Sha256 ctx;
  ctx.Update(data);
  return ctx.Finish();
}

}  // namespace dpe::crypto
