// Agglomerative hierarchical clustering with the complete-link criterion
// (Defays 1977, [3] in the paper). Deterministic merge order: each round
// merges the closest pair of active clusters, and ties break to the
// lexicographically smallest (left id, right id) pair.
//
// The cluster-to-cluster distances live in one packed triangle indexed by
// slot (Anderberg's cached-distance algorithm; the "generic" algorithm of
// Müllner, arXiv 1109.2378). Merging a and b reuses a's slot and writes one
// row of max(d(a,c), d(b,c)) — the Lance–Williams update for complete link,
// exact in floating point. A per-cluster nearest-later-neighbour cache
// turns each round's minimum search into an O(k) scan, so a typical run
// costs O(n²) time and n(n-1)/2 doubles of memory.

#ifndef DPE_MINING_HIERARCHICAL_H_
#define DPE_MINING_HIERARCHICAL_H_

#include "common/status.h"
#include "distance/matrix.h"
#include "mining/partition.h"
#include "obs/metrics.h"

namespace dpe::mining {

/// One merge step of the dendrogram.
struct Merge {
  size_t left;     ///< cluster id merged (cluster ids: 0..n-1 leaves, then n+step)
  size_t right;
  double distance; ///< complete-link distance at which the merge happened
};

struct Dendrogram {
  size_t leaf_count = 0;
  std::vector<Merge> merges;  ///< n-1 merges, in order

  /// Cuts the dendrogram into exactly `k` clusters (undoes the last k-1
  /// merges); k in [1, leaf_count].
  Result<Labels> CutK(size_t k) const;
};

/// Builds the complete-link dendrogram from a distance matrix. The link of
/// two clusters is the largest distance between their members, floored at
/// 0 (negative cells act as 0). InvalidArgument if any cell is NaN or
/// infinite. `metrics` (optional) records
/// mining.hierarchical.{runs,merge_rounds}. The links are worked out in the
/// matrix's own cells, so a caller done with its matrix moves it in and
/// saves a copy of the triangle.
Result<Dendrogram> CompleteLink(distance::DistanceMatrix matrix,
                                obs::MetricsRegistry* metrics = nullptr);

}  // namespace dpe::mining

#endif  // DPE_MINING_HIERARCHICAL_H_
