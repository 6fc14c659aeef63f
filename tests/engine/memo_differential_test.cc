// Seeded differential test of the memo: random sequences of SetLog,
// AddQuery, BuildMatrix, BuildMatrixAsync, SaveCheckpoint, LoadCheckpoint,
// CompactNow and ClearCache over two measures and two query pools (SetLog
// may switch pools, so stale rows would show). After every step each
// returned matrix must equal the serial DistanceMatrix::Compute reference
// bit for bit, and cache_stats() must count exactly the cells reused and
// computed since the counters were last reset.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>

#include "common/rng.h"
#include "engine/engine.h"
#include "sql/printer.h"
#include "tests/scenario_test_util.h"
#include "workload/scenarios.h"

namespace dpe::engine {
namespace {

namespace fs = std::filesystem;

using testutil::Shop;

constexpr size_t kPool = 40;
const char* const kMeasures[] = {"token", "structure"};

class MemoDifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    dir_ = (fs::path(::testing::TempDir()) /
            ("memo_differential_" + std::to_string(GetParam())))
               .string();
    fs::remove_all(dir_);
    // Same schema and data, different query logs.
    scenarios_[0] = Shop(GetParam(), kPool);
    scenarios_[1] = Shop(GetParam(), 2 * kPool);
    scenarios_[1].log.erase(scenarios_[1].log.begin(),
                            scenarios_[1].log.begin() + kPool);
    MeasureRegistry registry = MeasureRegistry::WithBuiltins();
    for (size_t pool = 0; pool < 2; ++pool) {
      for (const char* name : kMeasures) {
        auto measure = registry.Create(name);
        ASSERT_TRUE(measure.ok());
        auto full = distance::DistanceMatrix::Compute(
            scenarios_[pool].log, **measure, scenarios_[0].Context());
        ASSERT_TRUE(full.ok()) << full.status();
        reference_[pool][name] = std::move(full).value();
      }
    }
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// The engine's log is always a prefix of one pool (SetLog takes one,
  /// AddQuery extends it, a checkpoint restores one), so the reference is
  /// the top-left block of that pool's matrix.
  void ExpectMatchesReference(const Engine& engine, size_t pool,
                              const std::string& name,
                              const distance::DistanceMatrix& got,
                              size_t step) {
    const size_t n = engine.log_size();
    ASSERT_LE(n, kPool);
    for (size_t q = 0; q < n; ++q) {
      ASSERT_EQ(sql::ToSql(engine.log()[q]),
                sql::ToSql(scenarios_[pool].log[q]))
          << "step " << step;
    }
    ASSERT_EQ(got.size(), n) << "step " << step;
    const distance::DistanceMatrix& want = reference_[pool].at(name);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        ASSERT_EQ(got.at(i, j), want.at(i, j))
            << "step " << step << " " << name << " (" << i << ", " << j
            << ")";
      }
    }
  }

  std::string dir_;
  workload::Scenario scenarios_[2];
  std::map<std::string, distance::DistanceMatrix> reference_[2];
};

TEST_P(MemoDifferentialTest, RandomOpSequencesStayBitIdentical) {
  Rng rng(GetParam());
  Engine engine(scenarios_[0].Context(), {.threads = 2, .block = 4});
  size_t pool = 0;        // the pool the engine's log is a prefix of
  size_t saved_pool = 0;  // ... and the attached checkpoint's
  engine.SetLog({scenarios_[0].log.begin(), scenarios_[0].log.begin() + 5});
  uint64_t hits = 0;
  uint64_t misses = 0;
  bool saved = false;

  for (size_t step = 0; step < 80; ++step) {
    const std::string measure = kMeasures[rng.NextBelow(2)];
    switch (rng.NextBelow(9)) {
      case 0: {  // SetLog: a prefix of either pool; memo, counters reset
        pool = rng.NextBelow(2);
        const auto& log = scenarios_[pool].log;
        const size_t n = static_cast<size_t>(rng.NextBelow(kPool / 2));
        engine.SetLog({log.begin(), log.begin() + n});
        hits = misses = 0;
        break;
      }
      case 1:
      case 2: {  // AddQuery: the pool's next query
        if (engine.log_size() < kPool) {
          ASSERT_TRUE(
              engine.AddQuery(scenarios_[pool].log[engine.log_size()]).ok());
        }
        break;
      }
      case 3:
      case 4: {  // BuildMatrix
        BuildReport report;
        auto built = engine.BuildMatrix(measure, &report);
        ASSERT_TRUE(built.ok()) << built.status();
        ExpectMatchesReference(engine, pool, measure, *built, step);
        EXPECT_EQ(report.cells_cached + report.cells_computed,
                  report.cells_total);
        hits += report.cells_cached;
        misses += report.cells_computed;
        break;
      }
      case 5: {  // BuildMatrixAsync
        auto built = engine.BuildMatrixAsync(measure).get();
        ASSERT_TRUE(built.ok()) << built.status();
        ExpectMatchesReference(engine, pool, measure, *built, step);
        const BuildReport report = engine.last_build_report();
        hits += report.cells_cached;
        misses += report.cells_computed;
        break;
      }
      case 6: {  // SaveCheckpoint, or CompactNow once one is attached
        if (engine.checkpoint_attached() && rng.NextBelow(2) == 0) {
          ASSERT_TRUE(engine.CompactNow().ok());
        } else {
          ASSERT_TRUE(engine.SaveCheckpoint(dir_).ok());
          saved = true;
          saved_pool = pool;
        }
        break;
      }
      case 7: {  // LoadCheckpoint into the same engine: counters reset
        if (!saved) break;
        ASSERT_TRUE(engine.LoadCheckpoint(dir_).ok()) << "step " << step;
        pool = saved_pool;
        hits = misses = 0;
        break;
      }
      case 8: {  // ClearCache
        engine.ClearCache();
        hits = misses = 0;
        break;
      }
    }
    ASSERT_EQ(engine.cache_stats().hits, hits) << "step " << step;
    ASSERT_EQ(engine.cache_stats().misses, misses) << "step " << step;
  }

  // Whatever the sequence left on disk restores to the reference too.
  if (saved) {
    Engine restored(scenarios_[0].Context(), {.threads = 2, .block = 4});
    ASSERT_TRUE(restored.LoadCheckpoint(dir_).ok());
    for (const char* name : kMeasures) {
      auto built = restored.BuildMatrix(name);
      ASSERT_TRUE(built.ok()) << built.status();
      ExpectMatchesReference(restored, saved_pool, name, *built, 1000);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemoDifferentialTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

}  // namespace
}  // namespace dpe::engine
