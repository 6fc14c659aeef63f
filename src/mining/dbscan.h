// DBSCAN (Ester et al. 1996, [4] in the paper) on a precomputed distance
// matrix. Deterministic: points are seeded in index order, so two identical
// matrices always produce identical labelings.
//
// With a thread pool in the options, the epsilon-neighborhood lists of all
// points — the O(n²) part — are precomputed in parallel (each list by one
// task, in index order, so it equals the serial scan); the cluster
// expansion then walks those lists in the exact serial order, making the
// labeling bit-identical for every thread count. The precompute costs
// O(sum of neighborhood sizes) memory, so the serial path (pool == nullptr)
// keeps the original one-list-at-a-time lazy scan instead.

#ifndef DPE_MINING_DBSCAN_H_
#define DPE_MINING_DBSCAN_H_

#include "common/status.h"
#include "common/thread_pool.h"
#include "distance/matrix.h"
#include "mining/partition.h"
#include "obs/metrics.h"

namespace dpe::mining {

struct DbscanOptions {
  double epsilon = 0.3;  ///< neighborhood radius (distances are in [0,1])
  size_t min_points = 3; ///< core-point threshold, *including* the point itself
  /// Optional pool for the neighborhood precompute; nullptr = serial.
  common::ThreadPool* pool = nullptr;
  /// Records mining.dbscan.{runs,neighborhood_scans}; nullptr = none.
  obs::MetricsRegistry* metrics = nullptr;
};

struct DbscanResult {
  Labels labels;        ///< -1 = noise
  size_t cluster_count = 0;
};

/// InvalidArgument if any cell is NaN or infinite.
Result<DbscanResult> Dbscan(const distance::DistanceMatrix& matrix,
                            const DbscanOptions& options);

}  // namespace dpe::mining

#endif  // DPE_MINING_DBSCAN_H_
