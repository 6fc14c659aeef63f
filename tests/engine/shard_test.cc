// Sharded matrix builds: the plan partitions the tile schedule
// deterministically, a k-shard build round-tripped through on-disk shard
// files merges bit-identical to MatrixBuilder::Build for every built-in
// measure, and every corruption mode — overlapping ranges, missing shards,
// flipped bytes, wrong-n manifests — fails with a typed Status, never UB.

#include "engine/shard.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>

#include "distance/token_distance.h"
#include "engine/engine.h"
#include "engine/matrix_builder.h"
#include "engine/measure_registry.h"
#include "tests/scenario_test_util.h"
#include "workload/scenarios.h"

namespace dpe::engine {
namespace {

namespace fs = std::filesystem;

using testutil::ExpectBitIdentical;
using testutil::Shop;

class ShardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::path(::testing::TempDir()) /
            ("shard_test_" + std::string(::testing::UnitTest::GetInstance()
                                             ->current_test_info()
                                             ->name())))
               .string();
    fs::remove_all(dir_);
  }

  std::string dir_;
};

// -- Schedule / plan properties ----------------------------------------------

TEST_F(ShardTest, TileScheduleCoversUpperTriangleExactlyOnce) {
  for (size_t n : {0u, 1u, 2u, 7u, 16u, 33u}) {
    for (size_t block : {1u, 3u, 8u, 50u}) {
      const auto tiles = TileSchedule(n, block);
      EXPECT_EQ(tiles.size(), TileCount(n, block));
      std::vector<int> seen(n * n, 0);
      size_t cells = 0;
      for (const auto& [bi, bj] : tiles) {
        size_t tile_cells = 0;
        ForEachTileCell(n, block, bi, bj, [&](size_t i, size_t j) {
          ASSERT_LT(i, j);
          ++seen[i * n + j];
          ++cells;
          ++tile_cells;
        });
        // The closed-form count matches the traversal it summarizes.
        EXPECT_EQ(TileCellCount(n, block, bi, bj), tile_cells)
            << "tile (" << bi << ", " << bj << ") n=" << n
            << " block=" << block;
      }
      EXPECT_EQ(cells, n * (n - 1) / 2) << "n=" << n << " block=" << block;
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = i + 1; j < n; ++j) {
          EXPECT_EQ(seen[i * n + j], 1)
              << "cell (" << i << ", " << j << ") n=" << n
              << " block=" << block;
        }
      }
    }
  }
}

TEST_F(ShardTest, RangeWalkerAndCellCountMatchTheMaterializedSchedule) {
  // ForEachTileInRange and RangeCellCount (the sparse-shard codec's
  // allocation-free walkers) must agree with the materialized TileSchedule
  // on every subrange, including out-of-schedule tails (clamped).
  for (size_t n : {0u, 1u, 5u, 16u, 33u}) {
    for (size_t block : {1u, 4u, 50u}) {
      const auto tiles = TileSchedule(n, block);
      for (size_t begin = 0; begin <= tiles.size(); ++begin) {
        for (size_t end : {begin, (begin + tiles.size() + 1) / 2,
                           tiles.size(), tiles.size() + 7}) {
          if (end < begin) continue;
          std::vector<std::pair<size_t, size_t>> walked;
          common::ForEachTileInRange(
              n, block, begin, end,
              [&](size_t bi, size_t bj) { walked.emplace_back(bi, bj); });
          const size_t clamped = std::min(end, tiles.size());
          ASSERT_EQ(walked.size(), clamped - begin)
              << "n=" << n << " block=" << block << " [" << begin << ", "
              << end << ")";
          size_t cells = 0;
          for (size_t t = begin; t < clamped; ++t) {
            EXPECT_EQ(walked[t - begin], tiles[t]);
            cells += TileCellCount(n, block, tiles[t].first, tiles[t].second);
          }
          auto counted = common::RangeCellCount(n, block, begin, end);
          ASSERT_TRUE(counted.ok());
          EXPECT_EQ(*counted, cells)
              << "n=" << n << " block=" << block << " [" << begin << ", "
              << end << ")";
        }
      }
    }
  }
  EXPECT_EQ(common::RangeCellCount(5, 0, 0, 1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ShardTest, PlanShardsValidatesArguments) {
  EXPECT_EQ(PlanShards(10, 0, 2).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(PlanShards(10, 4, 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ShardTest, PlanShardsPartitionsAndBalances) {
  for (size_t n : {0u, 1u, 5u, 24u, 65u}) {
    for (size_t block : {1u, 4u, 16u}) {
      for (size_t k : {1u, 2u, 4u, 7u, 100u}) {
        auto plan = PlanShards(n, block, k);
        ASSERT_TRUE(plan.ok()) << plan.status();
        EXPECT_EQ(plan->n, n);
        EXPECT_EQ(plan->block, block);
        EXPECT_EQ(plan->tile_count, TileCount(n, block));
        ASSERT_EQ(plan->shard_count(), k);

        // Contiguous, disjoint, covering — in shard order.
        size_t expect = 0;
        for (const TileRange& range : plan->ranges) {
          EXPECT_EQ(range.begin, expect);
          EXPECT_LE(range.begin, range.end);
          expect = range.end;
        }
        EXPECT_EQ(expect, plan->tile_count);

        // Balanced by cells: no shard exceeds an even split by more than
        // the largest single tile (tiles are indivisible).
        const auto tiles = TileSchedule(n, block);
        size_t total = 0, largest = 0;
        std::vector<size_t> cells(tiles.size());
        for (size_t t = 0; t < tiles.size(); ++t) {
          cells[t] = TileCellCount(n, block, tiles[t].first, tiles[t].second);
          total += cells[t];
          largest = std::max(largest, cells[t]);
        }
        for (const TileRange& range : plan->ranges) {
          size_t shard_cells = 0;
          for (size_t t = range.begin; t < range.end; ++t) {
            shard_cells += cells[t];
          }
          EXPECT_LE(shard_cells, total / k + largest + 1)
              << "n=" << n << " block=" << block << " k=" << k;
        }

        // Deterministic: re-deriving the plan gives identical cuts.
        auto again = PlanShards(n, block, k);
        ASSERT_TRUE(again.ok());
        EXPECT_EQ(again->ranges, plan->ranges);
      }
    }
  }
}

// -- Round-trip bit-identity --------------------------------------------------

TEST_F(ShardTest, ShardedBuildIsBitIdenticalForAllMeasures) {
  workload::Scenario s = Shop(61, 21);
  distance::MeasureContext context = s.Context();
  MeasureRegistry registry = MeasureRegistry::WithBuiltins();
  common::ThreadPool pool(2);

  for (const std::string& name : registry.Names()) {
    auto reference_measure = registry.Create(name);
    ASSERT_TRUE(reference_measure.ok());
    MatrixBuilder builder(&pool, MatrixBuilderOptions{4});
    auto reference = builder.Build(s.log, **reference_measure, context);
    ASSERT_TRUE(reference.ok()) << name << ": " << reference.status();

    for (size_t k : {1u, 2u, 4u}) {
      const std::string shard_dir =
          dir_ + "-" + name + "-" + std::to_string(k);
      fs::remove_all(shard_dir);
      auto plan = PlanShards(s.log.size(), 4, k);
      ASSERT_TRUE(plan.ok());

      // Each shard runs as its own "process": a private store handle and a
      // fresh measure instance (stateful measures must not share Prepare
      // state across workers).
      for (size_t shard = 0; shard < k; ++shard) {
        auto store = store::MatrixStore::Open(shard_dir);
        ASSERT_TRUE(store.ok()) << store.status();
        auto measure = registry.Create(name);
        ASSERT_TRUE(measure.ok());
        ShardWorker worker(&pool);
        auto manifest =
            worker.Run(name, s.log, **measure, context, *plan, shard, *store);
        ASSERT_TRUE(manifest.ok())
            << name << " shard " << shard << ": " << manifest.status();
        EXPECT_EQ(manifest->tile_begin, plan->ranges[shard].begin);
        EXPECT_EQ(manifest->tile_end, plan->ranges[shard].end);
      }

      auto store = store::MatrixStore::OpenExisting(shard_dir);
      ASSERT_TRUE(store.ok());
      ShardCoordinator coordinator;
      auto merged = coordinator.Merge(*store, name, k);
      ASSERT_TRUE(merged.ok())
          << name << " k=" << k << ": " << merged.status();
      ExpectBitIdentical(*reference, *merged);
      fs::remove_all(shard_dir);
    }
  }
}

TEST_F(ShardTest, SparseShardFilesAreSmallerThanDense) {
  // The satellite claim: a k-shard build's files carry the owned cells, not
  // k copies of the zero-padded upper triangle, so the per-shard file is
  // roughly dense/k instead of dense-sized.
  workload::Scenario s = Shop(71, 24);
  distance::MeasureContext context = s.Context();
  distance::TokenDistance token;
  constexpr size_t kShards = 4;
  auto plan = PlanShards(s.log.size(), 4, kShards);
  ASSERT_TRUE(plan.ok());
  for (size_t shard = 0; shard < kShards; ++shard) {
    auto store = store::MatrixStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    ShardWorker worker(nullptr);
    auto manifest =
        worker.Run("token", s.log, token, context, *plan, shard, *store);
    ASSERT_TRUE(manifest.ok()) << manifest.status();
  }
  const uintmax_t dense_payload = 24 * 23 / 2 * 8;  // what v1 carried
  uintmax_t total = 0;
  for (size_t shard = 0; shard < kShards; ++shard) {
    const auto path = fs::path(dir_) / ("shard-token-" +
                                        std::to_string(shard) + "of" +
                                        std::to_string(kShards) + ".dpe");
    const uintmax_t size = fs::file_size(path);
    EXPECT_LT(size, dense_payload / 2) << "shard " << shard;
    total += size;
  }
  // All k files together stay in the ballpark of ONE dense payload.
  EXPECT_LT(total, 2 * dense_payload);
}

TEST_F(ShardTest, TinyLogsShardAndMerge) {
  // n = 0 and n = 1 have no pairs; the round-trip must still work (and the
  // n = 1 schedule still has one, empty, tile).
  distance::MeasureContext context;
  distance::TokenDistance token;
  for (size_t n : {0u, 1u}) {
    workload::Scenario s = Shop(77, std::max<size_t>(n, 1));
    std::vector<sql::SelectQuery> log(s.log.begin(), s.log.begin() + n);
    auto plan = PlanShards(n, 8, 2);
    ASSERT_TRUE(plan.ok());
    const std::string shard_dir = dir_ + "-n" + std::to_string(n);
    fs::remove_all(shard_dir);
    for (size_t shard = 0; shard < 2; ++shard) {
      auto store = store::MatrixStore::Open(shard_dir);
      ASSERT_TRUE(store.ok());
      ShardWorker worker(nullptr);
      auto manifest =
          worker.Run("token", log, token, context, *plan, shard, *store);
      ASSERT_TRUE(manifest.ok()) << manifest.status();
    }
    auto store = store::MatrixStore::OpenExisting(shard_dir);
    ASSERT_TRUE(store.ok());
    auto merged = ShardCoordinator().Merge(*store, "token", 2);
    ASSERT_TRUE(merged.ok()) << merged.status();
    EXPECT_EQ(merged->size(), n);
    fs::remove_all(shard_dir);
  }
}

TEST_F(ShardTest, EngineShardRoundTripWarmsCache) {
  workload::Scenario s = Shop(83, 20);
  constexpr size_t kShards = 4;

  Engine reference(s.Context(), {.threads = 2, .block = 8});
  reference.SetLog(s.log);
  auto expect = reference.BuildMatrix("token");
  ASSERT_TRUE(expect.ok());

  Engine coordinator(s.Context(), {.threads = 2, .block = 8});
  coordinator.SetLog(s.log);
  auto plan = coordinator.PlanShards(kShards);
  ASSERT_TRUE(plan.ok());

  // Workers are separate engines — in production, separate processes that
  // share only the plan (re-derivable) and the store directory.
  for (size_t shard = 0; shard < kShards; ++shard) {
    Engine worker(s.Context(), {.threads = 2, .block = 8});
    worker.SetLog(s.log);
    ASSERT_TRUE(worker.RunShard("token", *plan, shard, dir_).ok());
  }

  auto merged = coordinator.MergeShards("token", kShards, dir_);
  ASSERT_TRUE(merged.ok()) << merged.status();
  ExpectBitIdentical(*expect, *merged);

  // The merge warmed the cache: a subsequent build computes nothing.
  auto rebuilt = coordinator.BuildMatrix("token");
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(coordinator.cache_stats().misses, 0u);
  ExpectBitIdentical(*expect, *rebuilt);

  // A typo'd measure name fails fast instead of warming the cache with
  // unreachable entries.
  EXPECT_EQ(coordinator.MergeShards("tokn", kShards, dir_).status().code(),
            StatusCode::kNotFound);
}

// -- Corruption / failure modes ----------------------------------------------

class ShardCorruptionTest : public ShardTest {
 protected:
  /// Runs a valid 3-shard "token" build over a 14-query log into dir_.
  void RunValidShards() {
    s_ = std::make_unique<workload::Scenario>(Shop(97, 14));
    auto plan = PlanShards(s_->log.size(), 4, kShards);
    ASSERT_TRUE(plan.ok());
    plan_ = *plan;
    for (size_t shard = 0; shard < kShards; ++shard) {
      auto store = store::MatrixStore::Open(dir_);
      ASSERT_TRUE(store.ok());
      ShardWorker worker(nullptr);
      auto manifest = worker.Run("token", s_->log, token_, s_->Context(),
                                 plan_, shard, *store);
      ASSERT_TRUE(manifest.ok()) << manifest.status();
    }
  }

  Result<distance::DistanceMatrix> Merge() {
    auto store = store::MatrixStore::OpenExisting(dir_);
    if (!store.ok()) return store.status();
    return ShardCoordinator().Merge(*store, "token", kShards);
  }

  /// Rewrites shard `index` with a doctored manifest; the cell payload is
  /// regenerated (zeros) to the count the doctored manifest implies, so the
  /// file itself is well-formed and only the coordinator's cross-manifest
  /// validation can catch it.
  void RewriteShard(uint32_t index, uint64_t tile_begin, uint64_t tile_end,
                    uint64_t n = 0) {
    auto store = store::MatrixStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    auto shard = store->ReadShard("token", index, kShards);
    ASSERT_TRUE(shard.ok()) << shard.status();
    shard->manifest.tile_begin = tile_begin;
    shard->manifest.tile_end = tile_end;
    if (n != 0) shard->manifest.n = n;
    auto count = store::ShardCellCount(shard->manifest);
    ASSERT_TRUE(count.ok()) << count.status();
    std::vector<double> cells(*count, 0.0);
    ASSERT_TRUE(store->WriteShardCells(shard->manifest, cells).ok());
  }

  static constexpr size_t kShards = 3;
  std::unique_ptr<workload::Scenario> s_;
  ShardPlan plan_;
  distance::TokenDistance token_;
};

TEST_F(ShardCorruptionTest, MissingShardIsNotFound) {
  RunValidShards();
  fs::remove(fs::path(dir_) / "shard-token-1of3.dpe");
  auto merged = Merge();
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kNotFound);
}

TEST_F(ShardCorruptionTest, OverlappingTileRangesAreInvalidArgument) {
  RunValidShards();
  // Shard 1 reaches back into shard 0's range.
  ASSERT_GT(plan_.ranges[1].begin, 0u);
  RewriteShard(1, plan_.ranges[1].begin - 1, plan_.ranges[1].end);
  auto merged = Merge();
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(merged.status().message().find("overlap"), std::string::npos)
      << merged.status();
}

TEST_F(ShardCorruptionTest, TileGapIsInvalidArgument) {
  RunValidShards();
  // Shard 1 starts one tile late: a gap no shard covers.
  ASSERT_LT(plan_.ranges[1].begin + 1, plan_.ranges[1].end);
  RewriteShard(1, plan_.ranges[1].begin + 1, plan_.ranges[1].end);
  auto merged = Merge();
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(merged.status().message().find("covered by no shard"),
            std::string::npos)
      << merged.status();
}

TEST_F(ShardCorruptionTest, RangeBeyondScheduleIsInvalidArgument) {
  RunValidShards();
  RewriteShard(2, plan_.ranges[2].begin, plan_.tile_count + 5);
  auto merged = Merge();
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ShardCorruptionTest, WrongNManifestIsInvalidArgument) {
  RunValidShards();
  // Shard 2 claims a different log size than its siblings.
  RewriteShard(2, plan_.ranges[2].begin, plan_.ranges[2].end, /*n=*/20);
  auto merged = Merge();
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(merged.status().message().find("declares n"), std::string::npos)
      << merged.status();
}

TEST_F(ShardCorruptionTest, ConsistentButForeignShardSetIsRejectedByEngine) {
  // All manifests agree with each other but belong to a different log: the
  // engine-level merge must reject the size mismatch.
  RunValidShards();
  Engine engine(s_->Context());
  engine.SetLog({s_->log.begin(), s_->log.begin() + 9});  // 9 != 14
  auto merged = engine.MergeShards("token", kShards, dir_);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kInvalidArgument);

  // The empty log (n = 0, which Merge's expected_n treats as "don't
  // check") must be rejected too, not silently merged and cached.
  Engine empty_engine(s_->Context());
  auto empty_merge = empty_engine.MergeShards("token", kShards, dir_);
  ASSERT_FALSE(empty_merge.ok());
  EXPECT_EQ(empty_merge.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(empty_engine.cache_size(), 0u);
}

TEST_F(ShardCorruptionTest, ByteFlippedShardFileIsParseError) {
  RunValidShards();
  const std::string path = (fs::path(dir_) / "shard-token-0of3.dpe").string();
  std::ifstream in(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  data[data.size() / 2] = static_cast<char>(data[data.size() / 2] ^ 0x08);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.close();
  auto merged = Merge();
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kParseError);
}

TEST_F(ShardCorruptionTest, InfiniteCellInAFrameFailsMiningTyped) {
  // A well-formed frame (valid CRC) can still carry a non-finite distance.
  // The merge installs it as the memo; complete link must then fail typed,
  // not crash on a pair it can never merge.
  RunValidShards();
  {
    auto store = store::MatrixStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    auto shard = store->ReadShard("token", 0, kShards);
    ASSERT_TRUE(shard.ok()) << shard.status();
    ASSERT_FALSE(shard->cells.empty());
    shard->cells[0] = std::numeric_limits<double>::infinity();
    ASSERT_TRUE(store->WriteShardCells(shard->manifest, shard->cells).ok());
  }
  Engine engine(s_->Context());
  engine.SetLog(s_->log);
  ASSERT_TRUE(engine.MergeShards("token", kShards, dir_).ok());
  auto dendrogram = engine.RunHierarchical("token");
  ASSERT_FALSE(dendrogram.ok());
  EXPECT_EQ(dendrogram.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ShardCorruptionTest, WorkerRejectsForeignPlanAndBadIndex) {
  workload::Scenario s = Shop(101, 10);
  auto plan = PlanShards(12, 4, 2);  // plan for 12 queries, log holds 10
  ASSERT_TRUE(plan.ok());
  auto store = store::MatrixStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  ShardWorker worker(nullptr);
  distance::TokenDistance token;
  auto run = worker.Run("token", s.log, token, s.Context(), *plan, 0, *store);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);

  auto good_plan = PlanShards(10, 4, 2);
  ASSERT_TRUE(good_plan.ok());
  auto bad_index =
      worker.Run("token", s.log, token, s.Context(), *good_plan, 2, *store);
  ASSERT_FALSE(bad_index.ok());
  EXPECT_EQ(bad_index.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dpe::engine
