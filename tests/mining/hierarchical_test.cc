#include "mining/hierarchical.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <set>

namespace dpe::mining {
namespace {

distance::DistanceMatrix LineMatrix() {
  // Points at positions 0, 1, 2, 10, 11 (distances scaled by 1/20).
  double pos[] = {0, 1, 2, 10, 11};
  distance::DistanceMatrix m(5);
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = i + 1; j < 5; ++j) {
      m.set(i, j, std::abs(pos[i] - pos[j]) / 20.0);
    }
  }
  return m;
}

TEST(CompleteLinkTest, DendrogramShape) {
  auto d = CompleteLink(LineMatrix()).value();
  EXPECT_EQ(d.leaf_count, 5u);
  EXPECT_EQ(d.merges.size(), 4u);
  // Merge distances are non-decreasing for complete link on a metric.
  for (size_t i = 1; i < d.merges.size(); ++i) {
    EXPECT_GE(d.merges[i].distance, d.merges[i - 1].distance);
  }
}

TEST(CompleteLinkTest, CutK2SeparatesTheGap) {
  auto d = CompleteLink(LineMatrix()).value();
  auto labels = d.CutK(2).value();
  EXPECT_EQ(labels, (Labels{0, 0, 0, 1, 1}));
}

TEST(CompleteLinkTest, CutK1AndKn) {
  auto d = CompleteLink(LineMatrix()).value();
  EXPECT_EQ(d.CutK(1).value(), (Labels{0, 0, 0, 0, 0}));
  auto singletons = d.CutK(5).value();
  std::set<int> distinct(singletons.begin(), singletons.end());
  EXPECT_EQ(distinct.size(), 5u);
}

TEST(CompleteLinkTest, CompleteLinkUsesMaxLinkage) {
  // First merge must be the globally closest pair (0,1) or (1,2) or (3,4),
  // all at 1/20; ties break to the smallest pair -> (0,1).
  auto d = CompleteLink(LineMatrix()).value();
  EXPECT_EQ(d.merges[0].left, 0u);
  EXPECT_EQ(d.merges[0].right, 1u);
  EXPECT_DOUBLE_EQ(d.merges[0].distance, 1.0 / 20.0);
  // Merging {0,1} with {2} costs max(d(0,2), d(1,2)) = 2/20, while {3,4}
  // costs 1/20 -> second merge is (3,4).
  EXPECT_EQ(d.merges[1].left, 3u);
  EXPECT_EQ(d.merges[1].right, 4u);
}

TEST(CompleteLinkTest, InvalidCutRejected) {
  auto d = CompleteLink(LineMatrix()).value();
  EXPECT_FALSE(d.CutK(0).ok());
  EXPECT_FALSE(d.CutK(6).ok());
}

TEST(CompleteLinkTest, DeterministicAcrossRuns) {
  auto d1 = CompleteLink(LineMatrix()).value();
  auto d2 = CompleteLink(LineMatrix()).value();
  ASSERT_EQ(d1.merges.size(), d2.merges.size());
  for (size_t i = 0; i < d1.merges.size(); ++i) {
    EXPECT_EQ(d1.merges[i].left, d2.merges[i].left);
    EXPECT_EQ(d1.merges[i].right, d2.merges[i].right);
  }
}

TEST(CompleteLinkTest, EmptyAndSingleton) {
  auto d0 = CompleteLink(distance::DistanceMatrix(0)).value();
  EXPECT_EQ(d0.merges.size(), 0u);
  auto d1 = CompleteLink(distance::DistanceMatrix(1)).value();
  EXPECT_EQ(d1.merges.size(), 0u);
  EXPECT_EQ(d1.CutK(1).value(), (Labels{0}));
}

TEST(CompleteLinkTest, InfiniteCellIsInvalidArgument) {
  // Both links to point 2 infinite: once {0,1} merges, no finite pair is
  // left. This used to index an erased cluster and crash.
  distance::DistanceMatrix m(3);
  m.set(0, 1, 0.5);
  m.set(0, 2, std::numeric_limits<double>::infinity());
  m.set(1, 2, std::numeric_limits<double>::infinity());
  EXPECT_EQ(CompleteLink(m).status().code(), StatusCode::kInvalidArgument);
}

TEST(CompleteLinkTest, NanCellIsInvalidArgument) {
  // A NaN cell used to be read as 0 and merged first.
  distance::DistanceMatrix m = LineMatrix();
  m.set(1, 3, std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(CompleteLink(m).status().code(), StatusCode::kInvalidArgument);
  m.set(1, 3, -std::numeric_limits<double>::infinity());
  EXPECT_EQ(CompleteLink(m).status().code(), StatusCode::kInvalidArgument);
}

TEST(CompleteLinkTest, OneByOneMatrixHasNoMerges) {
  distance::DistanceMatrix m(1);
  auto d = CompleteLink(m);
  ASSERT_TRUE(d.ok()) << d.status();
  EXPECT_EQ(d->leaf_count, 1u);
  EXPECT_TRUE(d->merges.empty());
  EXPECT_EQ(d->CutK(1).value(), (Labels{0}));
}

// -- Differential test against the member-list definition ---------------------

/// The definition, computed the slow way: every round scores every pair of
/// active clusters (ascending ids) by the max over their member pairs,
/// floored at 0, and merges the first strict minimum. This is the
/// complete-link implementation CompleteLink replaced; its merges are the
/// oracle, field by field.
Dendrogram ReferenceCompleteLink(const distance::DistanceMatrix& m) {
  const size_t n = m.size();
  Dendrogram out;
  out.leaf_count = n;
  std::vector<size_t> ids;
  std::vector<std::vector<size_t>> members;
  for (size_t i = 0; i < n; ++i) {
    ids.push_back(i);
    members.push_back({i});
  }
  size_t next_id = n;
  while (ids.size() > 1) {
    double best = std::numeric_limits<double>::infinity();
    size_t best_a = 0;
    size_t best_b = 0;
    for (size_t a = 0; a < ids.size(); ++a) {
      for (size_t b = a + 1; b < ids.size(); ++b) {
        double worst = 0.0;
        for (size_t x : members[a]) {
          for (size_t y : members[b]) worst = std::max(worst, m.at(x, y));
        }
        if (worst < best) {
          best = worst;
          best_a = a;
          best_b = b;
        }
      }
    }
    out.merges.push_back({ids[best_a], ids[best_b], best});
    std::vector<size_t> merged = members[best_a];
    merged.insert(merged.end(), members[best_b].begin(),
                  members[best_b].end());
    ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(best_b));
    members.erase(members.begin() + static_cast<std::ptrdiff_t>(best_b));
    ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(best_a));
    members.erase(members.begin() + static_cast<std::ptrdiff_t>(best_a));
    ids.push_back(next_id++);
    members.push_back(std::move(merged));
  }
  return out;
}

enum class Family { kTenths, kBinary, kSmooth };

/// Seeded symmetric matrix. Tenths and binary cells make exact ties common
/// (binary: nearly every link ties), so the tie-break order is exercised;
/// smooth cells have no artificial ties.
distance::DistanceMatrix RandomMatrix(Family family, size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> tenth(0, 10);
  std::uniform_int_distribution<int> bit(0, 1);
  std::uniform_real_distribution<double> smooth(0.0, 1.0);
  distance::DistanceMatrix m(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      switch (family) {
        case Family::kTenths:
          m.set(i, j, tenth(rng) / 10.0);
          break;
        case Family::kBinary:
          m.set(i, j, bit(rng));
          break;
        case Family::kSmooth:
          m.set(i, j, smooth(rng));
          break;
      }
    }
  }
  return m;
}

void ExpectSameMerges(const distance::DistanceMatrix& m,
                      const std::string& label) {
  const Dendrogram expect = ReferenceCompleteLink(m);
  auto got = CompleteLink(m);
  ASSERT_TRUE(got.ok()) << label << ": " << got.status();
  EXPECT_EQ(got->leaf_count, expect.leaf_count) << label;
  ASSERT_EQ(got->merges.size(), expect.merges.size()) << label;
  for (size_t i = 0; i < expect.merges.size(); ++i) {
    ASSERT_EQ(got->merges[i].left, expect.merges[i].left)
        << label << ", merge " << i;
    ASSERT_EQ(got->merges[i].right, expect.merges[i].right)
        << label << ", merge " << i;
    // Exact equality on the double: the cached link must be bit-identical.
    ASSERT_EQ(got->merges[i].distance, expect.merges[i].distance)
        << label << ", merge " << i;
  }
}

TEST(CompleteLinkDifferentialTest, MatchesMemberListDefinition) {
  size_t matrices = 0;
  uint32_t seed = 1;
  for (size_t n = 1; n <= 90; ++n) {
    for (Family family :
         {Family::kTenths, Family::kBinary, Family::kSmooth, Family::kBinary}) {
      ExpectSameMerges(RandomMatrix(family, n, seed),
                       "n=" + std::to_string(n) + " seed=" +
                           std::to_string(seed));
      ++seed;
      ++matrices;
    }
  }
  for (size_t n : {128u, 257u, 600u}) {
    for (Family family : {Family::kTenths, Family::kBinary, Family::kSmooth}) {
      ExpectSameMerges(RandomMatrix(family, n, seed),
                       "n=" + std::to_string(n) + " seed=" +
                           std::to_string(seed));
      ++seed;
      ++matrices;
    }
  }
  EXPECT_GE(matrices, 300u);
}

TEST(CompleteLinkDifferentialTest, NegativeCellsActAsZero) {
  // The link is floored at 0, so negative cells tie with 0 and with each
  // other; the cached links must start from the same floor.
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> cell(-3, 3);
  for (size_t n : {2u, 5u, 17u, 40u}) {
    distance::DistanceMatrix m(n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) m.set(i, j, cell(rng) / 4.0);
    }
    ExpectSameMerges(m, "n=" + std::to_string(n));
  }
}

}  // namespace
}  // namespace dpe::mining
