#include "core/taxonomy.h"

#include <algorithm>
#include <numeric>
#include <set>

#include "crypto/csprng.h"
#include "crypto/det.h"
#include "crypto/join.h"
#include "crypto/keys.h"
#include "crypto/ope.h"
#include "crypto/paillier.h"
#include "crypto/prob.h"

namespace dpe::core {

Taxonomy::Taxonomy() {
  classes_ = {PpeClass::kProb, PpeClass::kHom,  PpeClass::kDet,
              PpeClass::kJoin, PpeClass::kOpe,  PpeClass::kJoinOpe};
  edges_ = {
      {PpeClass::kHom, PpeClass::kProb, TaxonomyEdge::Kind::kSubclass},
      {PpeClass::kOpe, PpeClass::kDet, TaxonomyEdge::Kind::kSubclass},
      {PpeClass::kJoin, PpeClass::kDet, TaxonomyEdge::Kind::kUsageMode},
      {PpeClass::kJoinOpe, PpeClass::kOpe, TaxonomyEdge::Kind::kUsageMode},
      {PpeClass::kJoinOpe, PpeClass::kJoin, TaxonomyEdge::Kind::kUsageMode},
  };
}

const Taxonomy& Taxonomy::Fig1() {
  static const Taxonomy kInstance;
  return kInstance;
}

bool Taxonomy::IsSubclassOf(PpeClass sub, PpeClass super) const {
  if (sub == super) return true;
  for (const auto& e : edges_) {
    if (e.kind != TaxonomyEdge::Kind::kSubclass) continue;
    if (e.from == sub && IsSubclassOf(e.to, super)) return true;
  }
  return false;
}

std::optional<int> Taxonomy::CompareSecurity(PpeClass a, PpeClass b) const {
  if (a == b) return 0;
  int la = SecurityLevel(a);
  int lb = SecurityLevel(b);
  if (la == lb) return std::nullopt;  // same row: not comparable (Fig. 1)
  return la > lb ? 1 : -1;
}

std::string Taxonomy::Render() const {
  std::string out;
  out += "  level 3 (most secure)   PROB    HOM\n";
  out += "                                   |  subclass\n";
  out += "  level 2                 DET --- JOIN (usage mode)\n";
  out += "                           |  subclass\n";
  out += "  level 1 (least secure)  OPE --- JOIN-OPE (usage mode)\n";
  return out;
}

int SecurityProfile::MinLevel() const {
  if (levels_.empty()) return 0;
  return *std::min_element(levels_.begin(), levels_.end());
}

double SecurityProfile::MeanLevel() const {
  if (levels_.empty()) return 0.0;
  return std::accumulate(levels_.begin(), levels_.end(), 0.0) /
         static_cast<double>(levels_.size());
}

int SecurityProfile::Compare(const SecurityProfile& other) const {
  std::vector<int> a = levels_;
  std::vector<int> b = other.levels_;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  // Compare from the worst slot upward; the shorter profile is padded with
  // its own continuation (profiles of different lengths compare by content).
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return a[i] > b[i] ? 1 : -1;
  }
  if (a.size() == b.size()) return 0;
  // More slots at least as good: prefer neither; treat equal prefix as tie
  // broken by mean.
  double ma = MeanLevel(), mb = other.MeanLevel();
  if (ma == mb) return 0;
  return ma > mb ? 1 : -1;
}

std::string SecurityProfile::ToString() const {
  std::vector<int> sorted = levels_;
  std::sort(sorted.begin(), sorted.end());
  std::string out = "[";
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(sorted[i]);
  }
  out += "]";
  return out;
}

namespace {
crypto::KeyManager TestKeys() { return crypto::KeyManager("taxonomy-validation-key"); }
}  // namespace

Result<bool> ValidateProbProperty(size_t samples) {
  auto keys = TestKeys();
  DPE_ASSIGN_OR_RETURN(crypto::ProbEncryptor enc,
                       crypto::ProbEncryptor::Create(
                           keys.Derive("prob"), crypto::Csprng::FromSeed("p")));
  std::set<Bytes> seen;
  for (size_t i = 0; i < samples; ++i) {
    seen.insert(enc.Encrypt("the same plaintext"));
  }
  return seen.size() == samples;
}

Result<bool> ValidateDetProperty(size_t samples) {
  auto keys = TestKeys();
  DPE_ASSIGN_OR_RETURN(crypto::DetEncryptor enc,
                       crypto::DetEncryptor::Create(keys.Derive("det")));
  std::set<Bytes> images;
  for (size_t i = 0; i < samples; ++i) {
    std::string pt = "value-" + std::to_string(i);
    Bytes c1 = enc.Encrypt(pt);
    Bytes c2 = enc.Encrypt(pt);
    if (c1 != c2) return false;  // must be a function
    images.insert(c1);
  }
  return images.size() == samples;  // must be injective on distinct inputs
}

Result<bool> ValidateOpeProperty(size_t samples) {
  auto keys = TestKeys();
  crypto::BoldyrevaOpe::Options opts;
  opts.domain_bits = 32;
  opts.range_bits = 48;
  DPE_ASSIGN_OR_RETURN(crypto::BoldyrevaOpe ope,
                       crypto::BoldyrevaOpe::Create(keys.Derive("ope"), opts));
  crypto::Csprng rng = crypto::Csprng::FromSeed("ope-pairs");
  for (size_t i = 0; i < samples; ++i) {
    uint64_t a = rng.NextBelow(1ULL << 32);
    uint64_t b = rng.NextBelow(1ULL << 32);
    DPE_ASSIGN_OR_RETURN(crypto::Bigint ca, ope.Encrypt(a));
    DPE_ASSIGN_OR_RETURN(crypto::Bigint cb, ope.Encrypt(b));
    if ((a < b) != (ca < cb)) return false;
    if ((a == b) != (ca == cb)) return false;
  }
  return true;
}

Result<bool> ValidateHomProperty(size_t samples) {
  crypto::Csprng rng = crypto::Csprng::FromSeed("hom");
  DPE_ASSIGN_OR_RETURN(crypto::Paillier::KeyPair kp,
                       crypto::Paillier::GenerateKeyPair(256, rng));
  for (size_t i = 0; i < samples; ++i) {
    int64_t a = static_cast<int64_t>(rng.NextBelow(1'000'000));
    int64_t b = static_cast<int64_t>(rng.NextBelow(1'000'000));
    DPE_ASSIGN_OR_RETURN(crypto::Bigint ca,
                         crypto::Paillier::Encrypt(kp, crypto::Bigint(a), rng));
    DPE_ASSIGN_OR_RETURN(crypto::Bigint cb,
                         crypto::Paillier::Encrypt(kp, crypto::Bigint(b), rng));
    crypto::Bigint sum_ct = crypto::Paillier::Add(kp.pub, ca, cb);
    DPE_ASSIGN_OR_RETURN(crypto::Bigint m,
                         crypto::Paillier::Decrypt(kp.pub, kp.priv, sum_ct));
    if (m != crypto::Bigint(a + b)) return false;
  }
  return true;
}

Result<bool> ValidateJoinProperty(size_t samples) {
  auto keys = TestKeys();
  crypto::JoinKeyRegistry registry(keys);
  DPE_RETURN_NOT_OK(registry.AddToGroup("g1", "orders.cid"));
  DPE_RETURN_NOT_OK(registry.AddToGroup("g1", "customers.cid"));
  DPE_ASSIGN_OR_RETURN(crypto::DetEncryptor a, registry.EncryptorFor("orders.cid"));
  DPE_ASSIGN_OR_RETURN(crypto::DetEncryptor b,
                       registry.EncryptorFor("customers.cid"));
  DPE_ASSIGN_OR_RETURN(crypto::DetEncryptor c,
                       registry.EncryptorFor("products.pid"));  // ungrouped
  for (size_t i = 0; i < samples; ++i) {
    std::string pt = "k" + std::to_string(i);
    if (a.Encrypt(pt) != b.Encrypt(pt)) return false;  // same group: joinable
    if (a.Encrypt(pt) == c.Encrypt(pt)) return false;  // no cross-group link
  }
  return true;
}

}  // namespace dpe::core
