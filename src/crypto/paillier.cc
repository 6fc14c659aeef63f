#include "crypto/paillier.h"

#include "crypto/instrument.h"

namespace dpe::crypto {

namespace {
/// L(u) = (u - 1) / n, defined on u = 1 mod n.
Bigint LFunction(const Bigint& u, const Bigint& n) { return (u - Bigint(1)) / n; }
}  // namespace

Result<Paillier::KeyPair> Paillier::GenerateKeyPair(int modulus_bits,
                                                    Csprng& rng) {
  if (modulus_bits < 64) {
    return Status::InvalidArgument("Paillier modulus must be >= 64 bits");
  }
  DPE_CRYPTO_COUNT("paillier", "keygen");
  CryptoSpan span("crypto.paillier.keygen");
  const int half = modulus_bits / 2;
  for (int attempt = 0; attempt < 128; ++attempt) {
    Bigint p = Bigint::RandomPrime(half, rng);
    Bigint q = Bigint::RandomPrime(modulus_bits - half, rng);
    if (p == q) continue;
    Bigint n = p * q;
    Bigint pm1 = p - Bigint(1);
    Bigint qm1 = q - Bigint(1);
    // Requires gcd(n, (p-1)(q-1)) == 1; holds unless p | q-1 or q | p-1.
    if (Bigint::Gcd(n, pm1 * qm1) != Bigint(1)) continue;

    KeyPair kp;
    kp.pub.n = n;
    kp.pub.n2 = n * n;
    kp.priv.lambda = Bigint::Lcm(pm1, qm1);
    kp.priv.p = p;
    kp.priv.q = q;
    kp.priv.p2 = p * p;
    kp.priv.q2 = q * q;
    kp.priv.q_mod_pm1 = q % pm1;
    kp.priv.p_mod_qm1 = p % qm1;
    DPE_ASSIGN_OR_RETURN(kp.priv.p2_inv, kp.priv.p2.InvMod(kp.priv.q2));
    // g = n+1: g^lambda mod n^2 = 1 + lambda*n, so L(..) = lambda mod n.
    Bigint g = n + Bigint(1);
    Bigint l = LFunction(g.PowMod(kp.priv.lambda, kp.pub.n2), n);
    DPE_ASSIGN_OR_RETURN(kp.priv.mu, l.InvMod(n));
    return kp;
  }
  return Status::Internal("Paillier keygen failed repeatedly");
}

Result<Bigint> Paillier::Encrypt(const KeyPair& kp, const Bigint& m,
                                 Csprng& rng) {
  const PublicKey& pub = kp.pub;
  const PrivateKey& priv = kp.priv;
  if (m.IsNegative() || !(m < pub.n)) {
    return Status::InvalidArgument("Paillier plaintext must be in [0, n)");
  }
  DPE_CRYPTO_COUNT("paillier", "encrypt");
  CryptoSpan span("crypto.paillier.encrypt");
  // r uniform in [1, n) with gcd(r, n) = 1.
  Bigint r;
  do {
    r = Bigint::RandomBelow(pub.n, rng);
  } while (r.IsZero() || Bigint::Gcd(r, pub.n) != Bigint(1));
  // r^n mod p^2: a = r^q mod p by Fermat, and a = b (mod p) implies
  // a^p = b^p (mod p^2), so r^(pq) = a^p (mod p^2). Likewise mod q^2.
  const Bigint rn_p = r.PowMod(priv.q_mod_pm1, priv.p).PowMod(priv.p, priv.p2);
  const Bigint rn_q = r.PowMod(priv.p_mod_qm1, priv.q).PowMod(priv.q, priv.q2);
  // Garner: the x in [0, n^2) with x = rn_p (mod p^2), x = rn_q (mod q^2).
  const Bigint rn = rn_p + priv.p2 * (((rn_q - rn_p) * priv.p2_inv) % priv.q2);
  // (1+n)^m = 1 + m*n (mod n^2).
  Bigint gm = (Bigint(1) + m * pub.n) % pub.n2;
  return (gm * rn) % pub.n2;
}

Result<Bigint> Paillier::Decrypt(const PublicKey& pub, const PrivateKey& priv,
                                 const Bigint& c) {
  if (c.IsNegative() || !(c < pub.n2)) {
    return Status::CryptoError("Paillier ciphertext out of range");
  }
  if (Bigint::Gcd(c, pub.n) != Bigint(1)) {
    return Status::CryptoError("Paillier ciphertext not a unit");
  }
  DPE_CRYPTO_COUNT("paillier", "decrypt");
  CryptoSpan span("crypto.paillier.decrypt");
  Bigint l = LFunction(c.PowMod(priv.lambda, pub.n2), pub.n);
  return (l * priv.mu) % pub.n;
}

Bigint Paillier::Add(const PublicKey& pub, const Bigint& c1, const Bigint& c2) {
  DPE_CRYPTO_COUNT("paillier", "add");
  CryptoSpan span("crypto.paillier.add");
  return (c1 * c2) % pub.n2;
}

Bigint Paillier::AddPlain(const PublicKey& pub, const Bigint& c,
                          const Bigint& k) {
  DPE_CRYPTO_COUNT("paillier", "add_plain");
  Bigint kk = k % pub.n;  // normalizes negatives into Z_n
  Bigint gk = (Bigint(1) + kk * pub.n) % pub.n2;
  return (c * gk) % pub.n2;
}

Bigint Paillier::MulPlain(const PublicKey& pub, const Bigint& c,
                          const Bigint& k) {
  DPE_CRYPTO_COUNT("paillier", "mul_plain");
  CryptoSpan span("crypto.paillier.mul_plain");
  Bigint kk = k % pub.n;
  return c.PowMod(kk, pub.n2);
}

Bigint Paillier::EncodeSigned(const PublicKey& pub, int64_t v) {
  Bigint m(v);
  return m % pub.n;  // mathematical mod: negatives wrap to [0, n)
}

Result<int64_t> Paillier::DecodeSigned(const PublicKey& pub, const Bigint& m) {
  Bigint half = pub.n / Bigint(2);
  Bigint v = m;
  if (m > half) v = m - pub.n;
  if (!v.FitsI64()) {
    return Status::OutOfRange("decoded Paillier value exceeds int64");
  }
  return v.ToI64();
}

}  // namespace dpe::crypto
