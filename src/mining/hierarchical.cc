#include "mining/hierarchical.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <numeric>
#include <utility>

namespace dpe::mining {

Result<Dendrogram> CompleteLink(distance::DistanceMatrix m,
                                obs::MetricsRegistry* metrics) {
  const size_t n = m.size();
  Dendrogram out;
  out.leaf_count = n;
  if (metrics != nullptr) {
    metrics->counter("mining.hierarchical.runs").Increment();
  }
  // A non-finite cell has no place in the merge order (+inf would leave no
  // pair to merge; NaN would compare false everywhere).
  DPE_RETURN_NOT_OK(m.CheckFinite());
  if (n < 2) return out;

  // Cluster-to-cluster links by slot, as a packed lower triangle: slot x > y
  // holds d(x, y) at x(x-1)/2 + y — the matrix's own cells, taken over. A
  // leaf starts in the slot of its index; a merge reuses the slot of its
  // left (smaller-id) cluster. The initial link is max(0, cell), the floor
  // the member-list definition starts from.
  std::vector<double> tri = std::move(m).TakePacked();
  for (double& cell : tri) cell = std::max(0.0, cell);
  auto link = [&tri](size_t x, size_t y) -> double& {
    if (x < y) std::swap(x, y);
    return tri[x * (x - 1) / 2 + y];
  };

  // Active slots in ascending cluster-id order. A merged cluster takes id
  // n + step, the largest, so it always moves to the back.
  std::vector<size_t> active(n);
  std::iota(active.begin(), active.end(), 0);
  std::vector<size_t> id(n);
  std::iota(id.begin(), id.end(), 0);

  // nn[c]: the first cluster after c in `active` at c's minimum link among
  // the clusters after it; nn_dist[c] that link (inf for the last one).
  // Scanning with strict < keeps the first minimum, so the first active
  // cluster with the smallest nn_dist, paired with its nn, is the
  // lexicographically smallest closest pair.
  constexpr double kNone = std::numeric_limits<double>::infinity();
  std::vector<size_t> nn(n, 0);
  std::vector<double> nn_dist(n, kNone);
  auto rescan = [&](size_t pos) {
    const size_t c = active[pos];
    nn_dist[c] = kNone;
    for (size_t q = pos + 1; q < active.size(); ++q) {
      const double d = link(c, active[q]);
      if (d < nn_dist[c]) {
        nn_dist[c] = d;
        nn[c] = active[q];
      }
    }
  };
  for (size_t pos = 0; pos + 1 < n; ++pos) rescan(pos);

  out.merges.reserve(n - 1);
  for (size_t step = 0; step + 1 < n; ++step) {
    size_t a = active[0];
    for (size_t pos = 1; pos + 1 < active.size(); ++pos) {
      if (nn_dist[active[pos]] < nn_dist[a]) a = active[pos];
    }
    const size_t b = nn[a];
    out.merges.push_back({id[a], id[b], nn_dist[a]});

    // Slot a becomes the merged cluster: its links are the max of a's and
    // b's (the complete-link Lance–Williams update). Drop a and b from the
    // active order and append the merged cluster last.
    size_t kept = 0;
    for (size_t c : active) {
      if (c == a || c == b) continue;
      double& merged = link(a, c);
      merged = std::max(merged, link(b, c));
      active[kept++] = c;
    }
    active.resize(kept);
    active.push_back(a);
    id[a] = n + step;
    nn_dist[a] = kNone;

    // A cluster whose neighbour was a or b lost it: rescan its row. Any
    // other keeps its neighbour unless the merged cluster, which sorts
    // last and so loses ties, is strictly closer.
    for (size_t pos = 0; pos < kept; ++pos) {
      const size_t c = active[pos];
      if (nn[c] == a || nn[c] == b) {
        rescan(pos);
      } else if (link(c, a) < nn_dist[c]) {
        nn_dist[c] = link(c, a);
        nn[c] = a;
      }
    }
  }
  if (metrics != nullptr) {
    metrics->counter("mining.hierarchical.merge_rounds")
        .Increment(out.merges.size());
  }
  return out;
}

Result<Labels> Dendrogram::CutK(size_t k) const {
  if (k == 0 || k > leaf_count) {
    return Status::InvalidArgument("k must be in [1, leaf_count]");
  }
  // Replay the first (leaf_count - k) merges with a union-find.
  std::vector<size_t> parent(leaf_count + merges.size());
  std::iota(parent.begin(), parent.end(), 0);
  std::function<size_t(size_t)> find = [&](size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  const size_t replay = leaf_count - k;
  for (size_t step = 0; step < replay; ++step) {
    const Merge& mg = merges[step];
    size_t fresh = leaf_count + step;
    parent[find(mg.left)] = fresh;
    parent[find(mg.right)] = fresh;
  }
  Labels labels(leaf_count);
  std::map<size_t, int> root_to_label;
  int next = 0;
  for (size_t i = 0; i < leaf_count; ++i) {
    size_t root = find(i);
    auto [it, inserted] = root_to_label.emplace(root, next);
    if (inserted) ++next;
    labels[i] = it->second;
  }
  return CanonicalizeLabels(labels);
}

}  // namespace dpe::mining
