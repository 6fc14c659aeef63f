#include "mining/dbscan.h"

#include <gtest/gtest.h>

#include <limits>

namespace dpe::mining {
namespace {

/// Blobs {0,1,2}, {3,4,5} plus an isolated point 6.
distance::DistanceMatrix BlobsWithNoise() {
  distance::DistanceMatrix m(7);
  for (size_t i = 0; i < 7; ++i) {
    for (size_t j = i + 1; j < 7; ++j) {
      double d;
      if (i == 6 || j == 6) {
        d = 0.95;
      } else if ((i < 3) == (j < 3)) {
        d = 0.1;
      } else {
        d = 0.8;
      }
      m.set(i, j, d);
    }
  }
  return m;
}

TEST(DbscanTest, FindsClustersAndNoise) {
  DbscanOptions opt;
  opt.epsilon = 0.2;
  opt.min_points = 3;
  auto r = Dbscan(BlobsWithNoise(), opt).value();
  EXPECT_EQ(r.cluster_count, 2u);
  EXPECT_EQ(r.labels, (Labels{0, 0, 0, 1, 1, 1, -1}));
}

TEST(DbscanTest, LargeEpsilonMergesEverything) {
  DbscanOptions opt;
  opt.epsilon = 1.0;
  opt.min_points = 2;
  auto r = Dbscan(BlobsWithNoise(), opt).value();
  EXPECT_EQ(r.cluster_count, 1u);
  for (int l : r.labels) EXPECT_EQ(l, 0);
}

TEST(DbscanTest, TinyEpsilonMakesAllNoise) {
  DbscanOptions opt;
  opt.epsilon = 0.01;
  opt.min_points = 2;
  auto r = Dbscan(BlobsWithNoise(), opt).value();
  EXPECT_EQ(r.cluster_count, 0u);
  for (int l : r.labels) EXPECT_EQ(l, -1);
}

TEST(DbscanTest, MinPointsGate) {
  DbscanOptions opt;
  opt.epsilon = 0.2;
  opt.min_points = 4;  // blobs have only 3 members
  auto r = Dbscan(BlobsWithNoise(), opt).value();
  EXPECT_EQ(r.cluster_count, 0u);
}

TEST(DbscanTest, BorderPointAttachesToFirstCluster) {
  // Chain: 0-1 close, 1-2 close, 0-2 far; min_points=2 makes all core.
  distance::DistanceMatrix m(3);
  m.set(0, 1, 0.1);
  m.set(1, 2, 0.1);
  m.set(0, 2, 0.5);
  DbscanOptions opt;
  opt.epsilon = 0.2;
  opt.min_points = 2;
  auto r = Dbscan(m, opt).value();
  EXPECT_EQ(r.cluster_count, 1u);
  EXPECT_EQ(r.labels, (Labels{0, 0, 0}));  // density-connected chain
}

TEST(DbscanTest, DeterministicAcrossRuns) {
  DbscanOptions opt;
  opt.epsilon = 0.2;
  opt.min_points = 3;
  EXPECT_EQ(Dbscan(BlobsWithNoise(), opt).value().labels,
            Dbscan(BlobsWithNoise(), opt).value().labels);
}

TEST(DbscanTest, NegativeEpsilonRejected) {
  DbscanOptions opt;
  opt.epsilon = -0.1;
  EXPECT_FALSE(Dbscan(BlobsWithNoise(), opt).ok());
}

TEST(DbscanTest, EmptyMatrix) {
  auto r = Dbscan(distance::DistanceMatrix(0), DbscanOptions{}).value();
  EXPECT_EQ(r.cluster_count, 0u);
  EXPECT_TRUE(r.labels.empty());
}

TEST(DbscanTest, NonFiniteCellIsInvalidArgument) {
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    distance::DistanceMatrix m = BlobsWithNoise();
    m.set(2, 6, bad);
    EXPECT_EQ(Dbscan(m, DbscanOptions{}).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
}

}  // namespace
}  // namespace dpe::mining
