#include "mining/dbscan.h"

#include <deque>

#include "mining/parallel_util.h"

namespace dpe::mining {

Result<DbscanResult> Dbscan(const distance::DistanceMatrix& m,
                            const DbscanOptions& options) {
  if (options.epsilon < 0) {
    return Status::InvalidArgument("epsilon must be >= 0");
  }
  DPE_RETURN_NOT_OK(m.CheckFinite());
  const size_t n = m.size();
  DbscanResult result;
  result.labels.assign(n, -1);
  std::vector<bool> visited(n, false);

  // Point p's neighbourhood, index ascending, from its gathered row (which
  // includes p itself at distance 0).
  auto scan = [&](size_t p, std::vector<double>& row,
                  std::vector<size_t>& out) {
    m.GatherRow(p, row.data());
    for (size_t q = 0; q < n; ++q) {
      if (row[q] <= options.epsilon) out.push_back(q);
    }
  };

  // With a pool, precompute all neighborhood lists up front — every list
  // built by one task in index order, so it equals the lazy scan — and
  // accept the O(sum of neighborhood sizes) memory. Without one, keep the
  // serial reference's one-list-at-a-time lazy scan (O(n) transient).
  const bool precomputed = options.pool != nullptr;
  std::vector<std::vector<size_t>> precompute(precomputed ? n : 0);
  if (precomputed) {
    MaybeParallelFor(options.pool, 0, n, MiningGrain(n, options.pool),
                     [&](size_t begin, size_t end) {
                       std::vector<double> row(n);
                       for (size_t p = begin; p < end; ++p) {
                         scan(p, row, precompute[p]);
                       }
                     });
  }
  uint64_t scans = precomputed ? n : 0;  // every list built exactly once
  std::vector<double> lazy_row(precomputed ? 0 : n);
  std::vector<size_t> lazy;
  auto neighbors = [&](size_t p) -> const std::vector<size_t>& {
    if (precomputed) return precompute[p];
    ++scans;
    lazy.clear();
    scan(p, lazy_row, lazy);
    return lazy;
  };

  int cluster = 0;
  for (size_t p = 0; p < n; ++p) {
    if (visited[p]) continue;
    visited[p] = true;
    const std::vector<size_t>& seeds = neighbors(p);
    if (seeds.size() < options.min_points) continue;  // noise (for now)
    result.labels[p] = cluster;
    std::deque<size_t> queue(seeds.begin(), seeds.end());
    while (!queue.empty()) {
      size_t q = queue.front();
      queue.pop_front();
      if (result.labels[q] == -1) result.labels[q] = cluster;  // border point
      if (visited[q]) continue;
      visited[q] = true;
      result.labels[q] = cluster;
      const std::vector<size_t>& q_neighbors = neighbors(q);
      if (q_neighbors.size() >= options.min_points) {
        queue.insert(queue.end(), q_neighbors.begin(), q_neighbors.end());
      }
    }
    ++cluster;
  }
  result.cluster_count = static_cast<size_t>(cluster);
  result.labels = CanonicalizeLabels(result.labels);
  if (options.metrics != nullptr) {
    options.metrics->counter("mining.dbscan.runs").Increment();
    options.metrics->counter("mining.dbscan.neighborhood_scans")
        .Increment(scans);
  }
  return result;
}

}  // namespace dpe::mining
