// Paillier cryptosystem: the HOM instance of Fig. 1 (homomorphic, a subclass
// of PROB). Supports the additive homomorphism CryptDB uses for SUM/AVG:
//
//   Dec(Add(Enc(a), Enc(b))) = a + b        (ciphertext multiplication)
//   Dec(MulPlain(Enc(a), k)) = a * k        (ciphertext exponentiation)
//
// Standard simplified-generator variant (g = n + 1, Damgard-Jurik s = 1).
//
// Only the data owner encrypts, and it holds the factors p, q: Encrypt takes
// the KeyPair and computes r^n mod n^2 by the CRT,
//   r^n mod p^2 = (r^(q mod (p-1)) mod p)^p mod p^2   (same with p, q swapped),
// joined with Garner's formula. A whole encryption then costs less than the
// single r^n mod n^2 it replaces did (77 vs 169 us at 512 bits, 0.45 vs
// 1.43 ms at 1024), and the same r gives the same ciphertext. The provider
// only ever needs the PublicKey (Add, AddPlain, MulPlain).

#ifndef DPE_CRYPTO_PAILLIER_H_
#define DPE_CRYPTO_PAILLIER_H_

#include "crypto/bigint.h"
#include "crypto/csprng.h"
#include "crypto/scheme.h"

namespace dpe::crypto {

class Paillier {
 public:
  /// Public parameters. g is fixed to n+1.
  struct PublicKey {
    Bigint n;   ///< modulus p*q
    Bigint n2;  ///< n^2, cached
    /// Plaintext space is Z_n; signed encoding uses [-(n-1)/2, (n-1)/2].
    size_t modulus_bits() const { return n.BitLength(); }
  };

  /// Decryption key, plus the factorization Encrypt's CRT runs on.
  struct PrivateKey {
    Bigint lambda;  ///< lcm(p-1, q-1)
    Bigint mu;      ///< (L(g^lambda mod n^2))^-1 mod n
    Bigint p, q;    ///< the prime factors of n
    Bigint p2, q2;  ///< p^2, q^2
    Bigint q_mod_pm1;  ///< q mod (p-1)
    Bigint p_mod_qm1;  ///< p mod (q-1)
    Bigint p2_inv;     ///< (p^2)^-1 mod q^2, Garner's coefficient
  };

  struct KeyPair {
    PublicKey pub;
    PrivateKey priv;
  };

  /// Generates a fresh key pair with an (approximately) `modulus_bits` RSA
  /// modulus; modulus_bits must be >= 64 (use >= 1024 outside tests).
  static Result<KeyPair> GenerateKeyPair(int modulus_bits, Csprng& rng);

  /// Encrypts m in [0, n). Probabilistic: fresh r per call, drawn from
  /// `rng`; the result is (1 + m*n) * r^n mod n^2, r^n by the CRT.
  static Result<Bigint> Encrypt(const KeyPair& kp, const Bigint& m,
                                Csprng& rng);

  /// Decrypts to m in [0, n).
  static Result<Bigint> Decrypt(const PublicKey& pub, const PrivateKey& priv,
                                const Bigint& c);

  /// Homomorphic addition: Enc(a) (*) Enc(b) = Enc(a + b mod n).
  static Bigint Add(const PublicKey& pub, const Bigint& c1, const Bigint& c2);

  /// Enc(a) -> Enc(a + k mod n) without knowing a.
  static Bigint AddPlain(const PublicKey& pub, const Bigint& c, const Bigint& k);

  /// Enc(a) -> Enc(a * k mod n) without knowing a.
  static Bigint MulPlain(const PublicKey& pub, const Bigint& c, const Bigint& k);

  /// Signed <-> Z_n encoding: v in [-(n-1)/2, (n-1)/2] maps to v mod n.
  static Bigint EncodeSigned(const PublicKey& pub, int64_t v);
  static Result<int64_t> DecodeSigned(const PublicKey& pub, const Bigint& m);
};

}  // namespace dpe::crypto

#endif  // DPE_CRYPTO_PAILLIER_H_
