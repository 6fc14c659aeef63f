#include "mining/knn.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <string>

#include "common/simd.h"

namespace dpe::mining {

Result<std::vector<size_t>> NearestNeighbors(
    const distance::DistanceMatrix& m, size_t i, size_t k,
    common::simd::KernelBackend backend) {
  const size_t n = m.size();
  if (i >= n) return Status::OutOfRange("point index out of range");
  if (k >= n) return Status::InvalidArgument("k must be < n");
  // Gather row i once: the selection below then reads a contiguous array
  // (the SIMD argmin's input) instead of doing matrix accesses per
  // comparison. The row is all it reads, and the stable sort is undefined
  // on NaN-poisoned comparisons, so only the row must be finite.
  std::vector<double> row(n);
  m.GatherRow(i, row.data());
  for (size_t j = 0; j < n; ++j) {
    if (!std::isfinite(row[j])) {
      return Status::InvalidArgument("distance(" + std::to_string(i) + ", " +
                                     std::to_string(j) + ") is not finite");
    }
  }

  if (4 * k < n) {
    // Small k (the usual kNN case): k rounds of the vectorized argmin
    // reduction (common/simd.h), O(k·n/width). Repeatedly extracting the
    // (min value, lowest index) pair and masking it out enumerates
    // neighbours in exactly (distance, index) order — the same sequence the
    // stable sort below produces, so both paths are bit-identical (tested).
    row[i] = std::numeric_limits<double>::infinity();  // never its own NN
    const common::simd::KernelTable& kernels =
        common::simd::KernelsFor(backend);
    std::vector<size_t> order;
    order.reserve(k);
    for (size_t round = 0; round < k; ++round) {
      const common::simd::ArgMinResult best = kernels.argmin(row.data(), n);
      order.push_back(best.index);
      row[best.index] = std::numeric_limits<double>::infinity();
    }
    return order;
  }

  std::vector<size_t> order;
  order.reserve(n - 1);
  for (size_t j = 0; j < n; ++j) {
    if (j != i) order.push_back(j);
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (row[a] != row[b]) return row[a] < row[b];
    return a < b;
  });
  order.resize(k);
  return order;
}

Result<int> KnnClassify(const distance::DistanceMatrix& m, const Labels& labels,
                        size_t i, size_t k,
                        common::simd::KernelBackend backend) {
  if (labels.size() != m.size()) {
    return Status::InvalidArgument("labels size must match matrix size");
  }
  DPE_ASSIGN_OR_RETURN(std::vector<size_t> nn,
                       NearestNeighbors(m, i, k, backend));
  std::map<int, size_t> votes;
  for (size_t j : nn) ++votes[labels[j]];
  int best_label = -1;
  size_t best_votes = 0;
  for (const auto& [label, count] : votes) {
    if (count > best_votes) {  // map order => smallest label wins ties
      best_votes = count;
      best_label = label;
    }
  }
  return best_label;
}

}  // namespace dpe::mining
