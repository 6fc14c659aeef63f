#include "distance/levenshtein_distance.h"

#include <algorithm>
#include <string_view>

#include "common/simd.h"
#include "distance/features.h"

namespace dpe::distance {

namespace {

double Normalized(size_t edits, size_t len_a, size_t len_b) {
  const size_t longest = std::max(len_a, len_b);
  if (longest == 0) return 0.0;
  return static_cast<double>(edits) / static_cast<double>(longest);
}

}  // namespace

size_t EditDistance(const std::vector<std::string>& a,
                    const std::vector<std::string>& b) {
  const size_t n = a.size(), m = b.size();
  std::vector<size_t> prev(m + 1), cur(m + 1);
  for (size_t j = 0; j <= m; ++j) prev[j] = j;
  for (size_t i = 1; i <= n; ++i) {
    cur[0] = i;
    for (size_t j = 1; j <= m; ++j) {
      size_t substitution = prev[j - 1] + (a[i - 1] != b[j - 1] ? 1 : 0);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, substitution});
    }
    std::swap(prev, cur);
  }
  return prev[m];
}

Result<std::unique_ptr<PreparedLog>> LevenshteinDistance::Prepare(
    const std::vector<const sql::SelectQuery*>& queries,
    const MeasureContext& context) const {
  // The dispatched edit-distance kernel (scalar two-row DP, or the
  // bit-parallel Myers kernel on the SIMD backends) is an exact integer
  // either way, so the cells are bit-identical across backends.
  const common::simd::KernelTable* kernels =
      &common::simd::KernelsFor(context.kernel_backend);
  if (granularity_ == Granularity::kTokenSequence) {
    return PrepareFeatureRows(
        queries, context, [](const QueryFeatures& f) { return f.token_seq; },
        [kernels](std::span<const uint32_t> a, std::span<const uint32_t> b) {
          return Normalized(
              kernels->edit_u32(a.data(), a.size(), b.data(), b.size()),
              a.size(), b.size());
        });
  }
  return PrepareFeatureRows(
      queries, context,
      [](const QueryFeatures& f) { return std::string_view(f.sql); },
      [kernels](std::string_view a, std::string_view b) {
        return Normalized(
            kernels->edit_bytes(a.data(), a.size(), b.data(), b.size()),
            a.size(), b.size());
      });
}

}  // namespace dpe::distance
