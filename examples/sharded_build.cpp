// Sharded matrix build walkthrough: the O(n²) distance-matrix construction
// split across k independent workers that share nothing but a directory.
//
//   $ ./build/examples/sharded_build
//
// 1. The coordinator derives a deterministic k-way ShardPlan (a partition
//    of the blocked upper-triangle tile schedule, balanced by cell count).
// 2. Each worker — here a loop iteration, in production a separate process
//    or host re-deriving the same plan — computes its tile range and
//    exports it as a checksummed shard file through the store codec.
// 3. The coordinator validates the shard manifests, merges the partials,
//    and the result is bit-identical to a single-process build.
//
// Everything below uses the plaintext context for readability; the same
// flow runs on the provider side with encrypted artifacts in the
// MeasureContext (see clustering_outsourcing.cpp).

#include <cstdio>
#include <filesystem>

#include "engine/engine.h"
#include "workload/scenarios.h"

using namespace dpe;

int main() {
  workload::ScenarioOptions scenario_options;
  scenario_options.seed = 13;
  scenario_options.rows_per_relation = 40;
  scenario_options.log_size = 64;
  auto scenario = workload::MakeShopScenario(scenario_options);
  if (!scenario.ok()) {
    std::fprintf(stderr, "scenario: %s\n",
                 scenario.status().ToString().c_str());
    return 1;
  }
  const std::string dir =
      (std::filesystem::temp_directory_path() / "dpe_sharded_build_example")
          .string();
  std::filesystem::remove_all(dir);

  constexpr size_t kShards = 4;
  engine::EngineOptions options{.threads = 2, .block = 16};

  // --- Coordinator: derive the plan (pure function of n, block, k). -------
  engine::Engine coordinator(scenario->Context(), options);
  coordinator.SetLog(scenario->log);
  auto plan = coordinator.PlanShards(kShards);
  if (!plan.ok()) {
    std::fprintf(stderr, "plan: %s\n", plan.status().ToString().c_str());
    return 1;
  }
  std::printf("plan: n = %zu queries, block = %zu -> %zu tiles in %zu "
              "shards\n",
              plan->n, plan->block, plan->tile_count, plan->shard_count());
  for (size_t shard = 0; shard < plan->shard_count(); ++shard) {
    const engine::TileRange& range = plan->ranges[shard];
    std::printf("  shard %zu: tiles [%zu, %zu)\n", shard, range.begin,
                range.end);
  }

  // --- Workers: one engine each (stands in for one process each). ---------
  for (size_t shard = 0; shard < kShards; ++shard) {
    engine::Engine worker(scenario->Context(), options);
    worker.SetLog(scenario->log);
    Status status = worker.RunShard("token", *plan, shard, dir);
    if (!status.ok()) {
      std::fprintf(stderr, "shard %zu: %s\n", shard,
                   status.ToString().c_str());
      return 1;
    }
    std::printf("worker %zu: exported shard-token-%zuof%zu.dpe\n", shard,
                shard, kShards);
  }

  // --- Coordinator: validate manifests, merge, verify. --------------------
  auto merged = coordinator.MergeShards("token", kShards, dir);
  if (!merged.ok()) {
    std::fprintf(stderr, "merge: %s\n", merged.status().ToString().c_str());
    return 1;
  }
  engine::Engine reference(scenario->Context(), options);
  reference.SetLog(scenario->log);
  auto direct = reference.BuildMatrix("token");
  if (!direct.ok()) return 1;
  auto diff = distance::DistanceMatrix::MaxAbsDifference(*merged, *direct);
  if (!diff.ok()) return 1;
  std::printf("merge: %zu x %zu matrix, max |sharded - direct| = %g %s\n",
              merged->size(), merged->size(), *diff,
              *diff == 0.0 ? "(bit-identical)" : "(MISMATCH!)");
  if (*diff != 0.0) return 1;

  // The merged matrix became the coordinator's memo: mining starts
  // immediately, with nothing recomputed.
  auto clusters = coordinator.RunKMedoids("token", {.k = 4});
  if (!clusters.ok()) return 1;
  std::printf("mining: k-medoids over the merged matrix, %zu distances "
              "recomputed (memo hits: %zu)\n",
              static_cast<size_t>(coordinator.cache_stats().misses),
              static_cast<size_t>(coordinator.cache_stats().hits));
  if (coordinator.cache_stats().misses != 0) return 1;

  std::filesystem::remove_all(dir);
  return 0;
}
