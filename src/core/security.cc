#include "core/security.h"

#include <algorithm>
#include <map>

#include "common/rng.h"
#include "crypto/det.h"
#include "crypto/ope.h"
#include "crypto/prob.h"

namespace dpe::core {

using crypto::PpeClass;

const char* AttackModelName(AttackModel model) {
  switch (model) {
    case AttackModel::kQueryOnly:
      return "query-only";
    case AttackModel::kKnownQuery:
      return "known-query";
    case AttackModel::kChosenQuery:
      return "chosen-query";
  }
  return "?";
}

std::string SchemeSecurityReport::ToString() const {
  std::string out = scheme + "\n";
  for (const auto& s : slots) {
    out += "  " + s.slot + ": " + crypto::PpeClassName(s.cls) + " (level " +
           std::to_string(s.level) + ")\n";
  }
  out += "  profile " + profile.ToString() + "\n";
  return out;
}

SchemeSecurityReport AssessScheme(const LogEncryptor& enc) {
  SchemeSecurityReport report;
  report.scheme = enc.spec().Describe();
  auto add = [&](const std::string& slot, PpeClass cls) {
    report.slots.push_back({slot, cls, crypto::PpeSecurityLevel(cls)});
    report.profile.Add(cls);
  };
  add("EncRel", enc.spec().enc_rel);
  add("EncAttr", enc.spec().enc_attr);
  if (enc.spec().const_mode == ConstMode::kUniform) {
    add("EncConst(*)", enc.spec().uniform_const);
  } else {
    for (const auto& [key, cls] : enc.const_classes()) {
      add("EncConst(" + key + ")", cls);
    }
  }
  return report;
}

int CompareReports(const SchemeSecurityReport& a,
                   const SchemeSecurityReport& b) {
  return a.profile.Compare(b.profile);
}

Result<FrequencyAttackResult> SimulateFrequencyAttack(PpeClass cls,
                                                      size_t samples,
                                                      size_t distinct_values,
                                                      double zipf_s,
                                                      uint64_t seed) {
  if (distinct_values == 0 || samples == 0) {
    return Status::InvalidArgument("need values and samples");
  }
  FrequencyAttackResult result;
  result.scheme = crypto::PpeClassName(cls);
  result.samples = samples;
  result.distinct_values = distinct_values;

  Rng rng(seed);
  Rng::ZipfDist zipf(distinct_values, zipf_s);
  // Plaintext pool: sorted ints; rank r of the Zipf is value pool[r].
  std::vector<int64_t> pool(distinct_values);
  for (size_t i = 0; i < distinct_values; ++i) {
    pool[i] = static_cast<int64_t>(i * 7 + 13);
  }
  // Attacker's prior: Zipf rank order over pool values (rank 0 most likely).

  // Draw plaintexts.
  std::vector<int64_t> plaintexts(samples);
  for (auto& p : plaintexts) p = pool[zipf.Sample(rng)];

  crypto::KeyManager keys("attack-simulation");
  size_t correct = 0;

  if (cls == PpeClass::kProb) {
    // Ciphertexts are all distinct and carry no signal: the attacker's best
    // move is guessing the most likely plaintext for every ciphertext.
    int64_t guess = pool[0];
    for (int64_t p : plaintexts) correct += (p == guess);
  } else if (cls == PpeClass::kDet) {
    DPE_ASSIGN_OR_RETURN(crypto::DetEncryptor det,
                         crypto::DetEncryptor::Create(keys.Derive("det")));
    // Observed ciphertext frequencies.
    std::map<Bytes, size_t> freq;
    std::vector<Bytes> cts(samples);
    for (size_t i = 0; i < samples; ++i) {
      cts[i] = det.EncryptConst(std::to_string(plaintexts[i]));
      ++freq[cts[i]];
    }
    // Rank ciphertexts by frequency (desc, ties by byte order for
    // determinism) and map rank -> Zipf rank -> pool value.
    std::vector<std::pair<size_t, Bytes>> ranked;
    for (const auto& [ct, n] : freq) ranked.emplace_back(n, ct);
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    });
    std::map<Bytes, int64_t> guess;
    for (size_t r = 0; r < ranked.size(); ++r) {
      guess[ranked[r].second] = r < pool.size() ? pool[r] : pool.back();
    }
    for (size_t i = 0; i < samples; ++i) {
      correct += (guess[cts[i]] == plaintexts[i]);
    }
  } else if (cls == PpeClass::kOpe) {
    crypto::BoldyrevaOpe::Options opts;
    opts.domain_bits = 32;
    opts.range_bits = 48;
    DPE_ASSIGN_OR_RETURN(crypto::BoldyrevaOpe ope,
                         crypto::BoldyrevaOpe::Create(keys.Derive("ope"), opts));
    // The attacker knows the sorted plaintext domain (pool) and sees the
    // sorted distinct ciphertexts: order aligns them directly.
    std::vector<crypto::Bigint> cts(samples);
    std::map<std::string, size_t> distinct;  // ct(dec) -> order index later
    std::vector<std::string> ct_keys(samples);
    for (size_t i = 0; i < samples; ++i) {
      DPE_ASSIGN_OR_RETURN(cts[i],
                           ope.Encrypt(static_cast<uint64_t>(plaintexts[i])));
      ct_keys[i] = cts[i].ToString();
      distinct[ct_keys[i]] = 0;
    }
    // Sort distinct ciphertexts numerically = plaintext order.
    std::vector<crypto::Bigint> unique_cts;
    for (const auto& [s, idx] : distinct) {
      (void)idx;
      auto v = crypto::Bigint::FromString(s);
      unique_cts.push_back(std::move(v).value());
    }
    std::sort(unique_cts.begin(), unique_cts.end());
    // The observed distinct values are some subset of the pool; with the
    // whole pool observed (typical for skewed logs over small pools), order
    // alignment is exact. Align i-th smallest ct with i-th smallest observed
    // plaintext... the attacker does not know which subset, so align against
    // the full pool when sizes match, else against the most likely subset
    // (here: first |distinct| pool values by rank, sorted).
    std::vector<int64_t> candidates;
    if (unique_cts.size() == pool.size()) {
      candidates = pool;  // already sorted ascending
    } else {
      for (size_t r = 0; r < unique_cts.size() && r < pool.size(); ++r) {
        candidates.push_back(pool[r]);
      }
      std::sort(candidates.begin(), candidates.end());
    }
    std::map<std::string, int64_t> guess;
    for (size_t i = 0; i < unique_cts.size() && i < candidates.size(); ++i) {
      guess[unique_cts[i].ToString()] = candidates[i];
    }
    for (size_t i = 0; i < samples; ++i) {
      correct += (guess[ct_keys[i]] == plaintexts[i]);
    }
  } else {
    return Status::InvalidArgument("attack simulation supports PROB/DET/OPE");
  }

  result.accuracy = static_cast<double>(correct) / static_cast<double>(samples);
  // Baseline: always guess the most frequent plaintext.
  size_t base_correct = 0;
  for (int64_t p : plaintexts) base_correct += (p == pool[0]);
  result.baseline = static_cast<double>(base_correct) / static_cast<double>(samples);
  return result;
}

}  // namespace dpe::core
