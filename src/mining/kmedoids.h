// K-medoids clustering, the "simple and fast" variant of Park & Jun 2009
// ([5] in the paper). Fully deterministic (ties break to the lower index),
// so identical distance matrices yield identical clusterings — the property
// the DPE mining-equivalence experiments rely on.
//
// With a thread pool in the options, the O(n²) phases — Park-Jun init, the
// assignment step and the per-cluster medoid update — run as per-row
// parallel maps followed by serial index-order reductions, so the result
// (labels, medoids, total_deviation, iteration count) is bit-identical to
// the serial path for every thread count.

#ifndef DPE_MINING_KMEDOIDS_H_
#define DPE_MINING_KMEDOIDS_H_

#include "common/status.h"
#include "common/thread_pool.h"
#include "distance/matrix.h"
#include "mining/partition.h"
#include "obs/metrics.h"

namespace dpe::mining {

struct KMedoidsOptions {
  size_t k = 2;
  size_t max_iterations = 100;
  /// Optional pool for the O(n²) phases; nullptr = serial (bit-identical).
  common::ThreadPool* pool = nullptr;
  /// Records mining.kmedoids.{runs,iterations}; nullptr = no recording.
  obs::MetricsRegistry* metrics = nullptr;
};

struct KMedoidsResult {
  Labels labels;                 ///< cluster id per point
  std::vector<size_t> medoids;   ///< point index of each cluster's medoid
  double total_deviation = 0.0;  ///< sum of distances to assigned medoids
  size_t iterations = 0;
};

/// Runs Park-Jun k-medoids on a precomputed distance matrix.
/// InvalidArgument if any cell is NaN or infinite.
Result<KMedoidsResult> KMedoids(const distance::DistanceMatrix& matrix,
                                const KMedoidsOptions& options);

}  // namespace dpe::mining

#endif  // DPE_MINING_KMEDOIDS_H_
