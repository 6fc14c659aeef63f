#include "mining/outlier.h"

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
  // Parallel map over points (std::vector<bool> is not safe for concurrent
  // element writes, so flags land in a plain byte vector first).
  std::vector<unsigned char> flags(n, 0);
  MaybeParallelFor(options.pool, 0, n, MiningGrain(n, options.pool),
                   [&](size_t begin, size_t end) {
                     for (size_t i = begin; i < end; ++i) {
                       size_t far = 0;
                       for (size_t j = 0; j < n; ++j) {
                         if (j == i) continue;
                         if (m.AtUnchecked(i, j) > options.d) ++far;
                       }
                       const size_t others = n > 0 ? n - 1 : 0;
                       if (others == 0) continue;
                       double fraction = static_cast<double>(far) /
                                         static_cast<double>(others);
                       if (fraction >= options.p) flags[i] = 1;
                     }
                   });
  for (size_t i = 0; i < n; ++i) {
    if (flags[i] != 0) {
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
