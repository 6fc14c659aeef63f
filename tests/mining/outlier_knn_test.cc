#include <gtest/gtest.h>

#include <limits>

#include "mining/knn.h"
#include "mining/outlier.h"

namespace dpe::mining {
namespace {

/// Cluster {0..4} tightly packed; 5 is far from everything.
distance::DistanceMatrix OneOutlier() {
  distance::DistanceMatrix m(6);
  for (size_t i = 0; i < 6; ++i) {
    for (size_t j = i + 1; j < 6; ++j) {
      m.set(i, j, (i == 5 || j == 5) ? 0.9 : 0.1);
    }
  }
  return m;
}

TEST(OutlierTest, DetectsTheIsolatedPoint) {
  OutlierOptions opt;
  opt.p = 0.9;
  opt.d = 0.5;
  auto r = DistanceBasedOutliers(OneOutlier(), opt).value();
  EXPECT_EQ(r.outliers, (std::vector<size_t>{5}));
  EXPECT_TRUE(r.is_outlier[5]);
  EXPECT_FALSE(r.is_outlier[0]);
}

TEST(OutlierTest, ThresholdDSensitivity) {
  OutlierOptions opt;
  opt.p = 0.9;
  opt.d = 0.95;  // nothing is farther than 0.95
  auto r = DistanceBasedOutliers(OneOutlier(), opt).value();
  EXPECT_TRUE(r.outliers.empty());
}

TEST(OutlierTest, FractionPSensitivity) {
  // Point 5 is far from 5/5 others; core points are far from 1/5 others.
  OutlierOptions opt;
  opt.p = 0.15;
  opt.d = 0.5;
  auto r = DistanceBasedOutliers(OneOutlier(), opt).value();
  EXPECT_EQ(r.outliers.size(), 6u);  // everyone is far from >= 15% now
}

TEST(OutlierTest, InvalidPRejected) {
  EXPECT_FALSE(DistanceBasedOutliers(OneOutlier(), {0.0, 0.5}).ok());
  EXPECT_FALSE(DistanceBasedOutliers(OneOutlier(), {1.5, 0.5}).ok());
}

TEST(OutlierTest, EmptyMatrix) {
  auto r = DistanceBasedOutliers(distance::DistanceMatrix(0), OutlierOptions{})
               .value();
  EXPECT_TRUE(r.outliers.empty());
}

TEST(KnnTest, NeighborsSortedByDistanceThenIndex) {
  distance::DistanceMatrix m(4);
  m.set(0, 1, 0.5);
  m.set(0, 2, 0.2);
  m.set(0, 3, 0.5);
  m.set(1, 2, 0.3);
  m.set(1, 3, 0.4);
  m.set(2, 3, 0.6);
  auto nn = NearestNeighbors(m, 0, 3).value();
  EXPECT_EQ(nn, (std::vector<size_t>{2, 1, 3}));  // tie 1 vs 3 -> lower index
}

TEST(KnnTest, BoundsChecked) {
  distance::DistanceMatrix m(3);
  EXPECT_FALSE(NearestNeighbors(m, 5, 1).ok());
  EXPECT_FALSE(NearestNeighbors(m, 0, 3).ok());
}

TEST(KnnTest, MajorityVoteClassification) {
  auto m = OneOutlier();
  Labels labels = {0, 0, 0, 1, 1, 1};
  // Point 0's 3 nearest are 1,2,3 (0.1 each; tie broken by index): votes
  // {0:2, 1:1} -> label 0.
  EXPECT_EQ(KnnClassify(m, labels, 0, 3).value(), 0);
}

TEST(KnnTest, LabelsSizeValidated) {
  auto m = OneOutlier();
  EXPECT_FALSE(KnnClassify(m, {0, 1}, 0, 2).ok());
}

TEST(OutlierTest, NonFiniteCellIsInvalidArgument) {
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    distance::DistanceMatrix m = OneOutlier();
    m.set(0, 5, bad);
    EXPECT_EQ(DistanceBasedOutliers(m, OutlierOptions{}).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
}

TEST(KnnTest, NonFiniteCellInTheRowIsInvalidArgument) {
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    distance::DistanceMatrix m = OneOutlier();
    m.set(0, 5, bad);
    // Both selection paths: k rounds of argmin (4k < n) and the stable sort.
    EXPECT_EQ(NearestNeighbors(m, 0, 1).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
    EXPECT_EQ(NearestNeighbors(m, 5, 4).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
    // Row 1 holds no bad cell: its neighbours are still well defined.
    EXPECT_TRUE(NearestNeighbors(m, 1, 4).ok()) << bad;
  }
}

}  // namespace
}  // namespace dpe::mining
