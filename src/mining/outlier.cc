#include "mining/outlier.h"

#include <cmath>
#include <cstdint>
#include <span>

#include "mining/parallel_util.h"

namespace dpe::mining {

Result<OutlierResult> DistanceBasedOutliers(const distance::DistanceMatrix& m,
                                            const OutlierOptions& options) {
  if (options.p <= 0.0 || options.p > 1.0) {
    return Status::InvalidArgument("p must be in (0, 1]");
  }
  DPE_RETURN_NOT_OK(m.CheckFinite());
  const size_t n = m.size();
  OutlierResult result;
  result.is_outlier.assign(n, false);
  // far[i] counts the j != i with d(i, j) > D. The counts are integers, so
  // any traversal order is exact: walk the packed triangle in contiguous
  // row runs and credit both ends of each far pair. With a pool, each of
  // thread_count bands of rows counts into its own array, and the arrays
  // are summed afterwards. About (i/n)² of the cells precede row i, so
  // band b starts at row n·sqrt(b/bands) and the bands hold equal cells.
  const std::span<const double> cells = m.packed();
  const size_t bands =
      options.pool != nullptr ? options.pool->thread_count() : 1;
  std::vector<size_t> bounds(bands + 1, n);
  for (size_t b = 0; b < bands; ++b) {
    bounds[b] = static_cast<size_t>(
        std::sqrt(static_cast<double>(b) / static_cast<double>(bands)) *
        static_cast<double>(n));
  }
  std::vector<std::vector<uint32_t>> far(bands, std::vector<uint32_t>(n, 0));
  MaybeParallelFor(options.pool, 0, bands, 1, [&](size_t begin, size_t end) {
    for (size_t b = begin; b < end; ++b) {
      uint32_t* counts = far[b].data();
      for (size_t i = bounds[b]; i < bounds[b + 1]; ++i) {
        const double* row = cells.data() + distance::TriangleCells(i);
        uint32_t row_far = 0;
        for (size_t j = 0; j < i; ++j) {
          const bool is_far = row[j] > options.d;
          row_far += is_far;
          counts[j] += is_far;
        }
        counts[i] += row_far;
      }
    }
  });
  const size_t others = n > 0 ? n - 1 : 0;
  for (size_t i = 0; i < n && others > 0; ++i) {
    size_t count = 0;
    for (size_t b = 0; b < bands; ++b) count += far[b][i];
    const double fraction =
        static_cast<double>(count) / static_cast<double>(others);
    if (fraction >= options.p) {
      result.is_outlier[i] = true;
      result.outliers.push_back(i);
    }
  }
  if (options.metrics != nullptr) {
    options.metrics->counter("mining.outlier.runs").Increment();
    options.metrics->counter("mining.outlier.scans").Increment(n);
  }
  return result;
}

}  // namespace dpe::mining
