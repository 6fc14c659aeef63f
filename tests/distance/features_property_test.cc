// Property tests for the feature-precompute pipeline: the FeatureCache's
// layout and the sorted-span Jaccard kernels. The featurized distances are
// checked against the paper's definitions in
// prepared_distance_differential_test.cc.

#include "distance/features.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <vector>

#include "distance/jaccard.h"
#include "tests/scenario_test_util.h"

namespace dpe::distance {
namespace {

TEST(FeatureCacheTest, ComputesOneEntryPerQuery) {
  workload::Scenario s = testutil::Shop(7, 12);
  auto cache = FeatureCache::Compute(s.log).value();
  EXPECT_EQ(cache.size(), s.log.size());
  for (const sql::SelectQuery& q : s.log) {
    const QueryFeatures* f = cache.Find(q);
    ASSERT_NE(f, nullptr);
    EXPECT_FALSE(f->sql.empty());
    EXPECT_FALSE(f->token_seq.empty());
    // token_ids is the sorted unique projection of token_seq.
    std::vector<uint32_t> expect(f->token_seq.begin(), f->token_seq.end());
    std::sort(expect.begin(), expect.end());
    expect.erase(std::unique(expect.begin(), expect.end()), expect.end());
    EXPECT_TRUE(std::equal(f->token_ids.begin(), f->token_ids.end(),
                           expect.begin(), expect.end()));
    EXPECT_TRUE(std::is_sorted(f->structure_ids.begin(),
                               f->structure_ids.end()));
  }
}

// The SoA contract: every span of every query slices the cache's single
// flat arena, and the per-query stripes are packed in log order — the
// layout the blocked builder's tiles rely on for locality.
TEST(FeatureCacheTest, SpansSliceOneArenaInLogOrder) {
  workload::Scenario s = testutil::Shop(11, 9);
  auto cache = FeatureCache::Compute(s.log).value();
  const std::vector<uint32_t>& arena = cache.arena();
  const uint32_t* base = arena.data();
  const uint32_t* cursor = base;
  for (const sql::SelectQuery& q : s.log) {
    const QueryFeatures* f = cache.Find(q);
    ASSERT_NE(f, nullptr);
    // Per-query stripe: [token_seq][token_ids][structure_ids], contiguous.
    EXPECT_EQ(f->token_seq.data(), cursor);
    EXPECT_EQ(f->token_ids.data(), f->token_seq.data() + f->token_seq.size());
    EXPECT_EQ(f->structure_ids.data(),
              f->token_ids.data() + f->token_ids.size());
    cursor = f->structure_ids.data() + f->structure_ids.size();
    EXPECT_GE(f->token_seq.data(), base);
    EXPECT_LE(cursor, base + arena.size());
  }
  EXPECT_EQ(cursor, base + arena.size());
}

TEST(FeatureCacheTest, FindIsIdentityBasedSoCopiesFallBack) {
  workload::Scenario s = testutil::Shop(7, 4);
  auto cache = FeatureCache::Compute(s.log).value();
  sql::SelectQuery copy = s.log[0];
  EXPECT_EQ(cache.Find(copy), nullptr);
  EXPECT_NE(cache.Find(s.log[0]), nullptr);
}

// Merge-intersection kernel vs std::set_intersection on random sorted
// unique vectors.
TEST(SortedIntersectionTest, MatchesSetIntersectionOnRandomInputs) {
  std::mt19937 rng(1234);
  for (int round = 0; round < 200; ++round) {
    std::set<uint32_t> sa, sb;
    std::uniform_int_distribution<uint32_t> value(0, 60);
    std::uniform_int_distribution<size_t> len(0, 40);
    const size_t na = len(rng), nb = len(rng);
    while (sa.size() < na) sa.insert(value(rng));
    while (sb.size() < nb) sb.insert(value(rng));
    std::vector<uint32_t> a(sa.begin(), sa.end()), b(sb.begin(), sb.end());
    std::vector<uint32_t> expect;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(expect));
    EXPECT_EQ(SortedIntersectionCount(a, b), expect.size());
    EXPECT_EQ(SortedIntersectionCount(b, a), expect.size());
    // And the distance agrees with the std::set reference implementation.
    std::set<uint32_t> set_a(a.begin(), a.end()), set_b(b.begin(), b.end());
    EXPECT_EQ(JaccardDistanceSorted(a, b), JaccardDistance(set_a, set_b));
  }
}

TEST(SortedIntersectionTest, EmptyEdgeCases) {
  std::vector<uint32_t> empty, some{1, 2, 3};
  EXPECT_EQ(SortedIntersectionCount(empty, empty), 0u);
  EXPECT_EQ(SortedIntersectionCount(empty, some), 0u);
  EXPECT_EQ(JaccardDistanceSorted(empty, empty), 0.0);
  EXPECT_EQ(JaccardDistanceSorted(empty, some), 1.0);
  EXPECT_EQ(JaccardDistanceSorted(some, some), 0.0);
}

}  // namespace
}  // namespace dpe::distance
