#include "mining/kmedoids.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "mining/parallel_util.h"

namespace dpe::mining {

Result<KMedoidsResult> KMedoids(const distance::DistanceMatrix& m,
                                const KMedoidsOptions& options) {
  const size_t n = m.size();
  if (options.k == 0 || options.k > n) {
    return Status::InvalidArgument("k must be in [1, n]");
  }
  DPE_RETURN_NOT_OK(m.CheckFinite());  // the medoid sorts need an order
  common::ThreadPool* pool = options.pool;
  const size_t grain = MiningGrain(n, pool);

  // Park-Jun initialization: v_j = sum_i d_ij / (sum_l d_il); take the k
  // smallest v_j as initial medoids. Each row/column sum is produced by one
  // task over a gathered row, index ascending — the serial inner order — so
  // the doubles match the serial path. Column j is row j (symmetry).
  std::vector<double> row_sums(n, 0.0);
  MaybeParallelFor(pool, 0, n, grain, [&](size_t begin, size_t end) {
    std::vector<double> row(n);
    for (size_t i = begin; i < end; ++i) {
      m.GatherRow(i, row.data());
      double sum = 0.0;
      for (size_t j = 0; j < n; ++j) sum += row[j];
      row_sums[i] = sum;
    }
  });
  std::vector<double> v(n, 0.0);
  MaybeParallelFor(pool, 0, n, grain, [&](size_t begin, size_t end) {
    std::vector<double> column(n);
    for (size_t j = begin; j < end; ++j) {
      m.GatherRow(j, column.data());
      double sum = 0.0;
      for (size_t i = 0; i < n; ++i) {
        if (row_sums[i] > 0) sum += column[i] / row_sums[i];
      }
      v[j] = sum;
    }
  });
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return v[a] < v[b]; });
  std::vector<size_t> medoids(order.begin(), order.begin() + options.k);
  std::sort(medoids.begin(), medoids.end());

  KMedoidsResult result;
  result.labels.assign(n, 0);

  // Assignment step: per-point nearest medoid in parallel, then a serial
  // index-order reduction of the deviation (FP addition order fixed).
  std::vector<double> best_d(n, 0.0);
  auto assign = [&]() {
    MaybeParallelFor(pool, 0, n, grain, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        int best = 0;
        double d_best = std::numeric_limits<double>::infinity();
        for (size_t c = 0; c < medoids.size(); ++c) {
          double d = m.AtUnchecked(i, medoids[c]);
          if (d < d_best) {
            d_best = d;
            best = static_cast<int>(c);
          }
        }
        result.labels[i] = best;
        best_d[i] = d_best;
      }
    });
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) total += best_d[i];
    return total;
  };

  result.total_deviation = assign();
  std::vector<double> cost(n, 0.0);
  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    // Update step: within each cluster pick the point minimizing the sum of
    // distances to the cluster's members. cost[i] (i's sum within its own
    // cluster, members in index order) is a parallel map; the argmin scan
    // stays serial, candidates ascending, strict < — ties to lower index.
    MaybeParallelFor(pool, 0, n, grain, [&](size_t begin, size_t end) {
      std::vector<double> row(n);
      for (size_t candidate = begin; candidate < end; ++candidate) {
        const int c = result.labels[candidate];
        m.GatherRow(candidate, row.data());
        double sum = 0.0;
        for (size_t i = 0; i < n; ++i) {
          if (result.labels[i] == c) sum += row[i];
        }
        cost[candidate] = sum;
      }
    });
    bool changed = false;
    for (size_t c = 0; c < medoids.size(); ++c) {
      double best_cost = std::numeric_limits<double>::infinity();
      size_t best_point = medoids[c];
      for (size_t candidate = 0; candidate < n; ++candidate) {
        if (result.labels[candidate] != static_cast<int>(c)) continue;
        if (cost[candidate] < best_cost) {
          best_cost = cost[candidate];
          best_point = candidate;
        }
      }
      if (best_point != medoids[c]) {
        medoids[c] = best_point;
        changed = true;
      }
    }
    if (!changed) break;
    result.total_deviation = assign();
  }

  result.medoids = medoids;
  result.labels = CanonicalizeLabels(result.labels);
  if (options.metrics != nullptr) {
    options.metrics->counter("mining.kmedoids.runs").Increment();
    options.metrics->counter("mining.kmedoids.iterations")
        .Increment(result.iterations);
  }
  return result;
}

}  // namespace dpe::mining
