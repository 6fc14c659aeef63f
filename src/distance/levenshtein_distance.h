// Levenshtein query-string distances — the alternative string measure the
// paper's Example 2 mentions ("one can use a string-distance measure like
// the Levenshtein distance").
//
// Two granularities with opposite DPE behavior (ablated in bench_ablation):
//  * kTokenSequence — edit distance over the lexed token sequence,
//    normalized by the longer length. Preserved exactly by the token scheme
//    (a bijective per-token substitution preserves the equality pattern of
//    the two sequences, hence the DP table).
//  * kCharacter — edit distance over raw characters, normalized. NOT
//    preserved by any token-wise encryption (ciphertext lexeme lengths
//    differ from plaintext lengths) — the measured reason the paper's case
//    study builds on token *sets*, not strings.

#ifndef DPE_DISTANCE_LEVENSHTEIN_DISTANCE_H_
#define DPE_DISTANCE_LEVENSHTEIN_DISTANCE_H_

#include "distance/measure.h"

namespace dpe::distance {

/// Plain edit distance between two string vectors (exposed for tests).
size_t EditDistance(const std::vector<std::string>& a,
                    const std::vector<std::string>& b);

class LevenshteinDistance final : public QueryDistanceMeasure {
 public:
  enum class Granularity { kTokenSequence, kCharacter };

  explicit LevenshteinDistance(Granularity g = Granularity::kTokenSequence)
      : granularity_(g) {}

  std::string Name() const override {
    return granularity_ == Granularity::kTokenSequence ? "levenshtein-token"
                                                       : "levenshtein-char";
  }
  SharedInformation Shared() const override { return {true, false, false}; }
  Result<std::unique_ptr<PreparedLog>> Prepare(
      const std::vector<const sql::SelectQuery*>& queries,
      const MeasureContext& context) const override;

 private:
  Granularity granularity_;
};

}  // namespace dpe::distance

#endif  // DPE_DISTANCE_LEVENSHTEIN_DISTANCE_H_
