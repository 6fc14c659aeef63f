#include "mining/kmedoids.h"

#include <gtest/gtest.h>

#include <limits>

namespace dpe::mining {
namespace {

/// Two tight groups {0,1,2} and {3,4,5} far apart.
distance::DistanceMatrix TwoBlobs() {
  distance::DistanceMatrix m(6);
  for (size_t i = 0; i < 6; ++i) {
    for (size_t j = i + 1; j < 6; ++j) {
      bool same = (i < 3) == (j < 3);
      m.set(i, j, same ? 0.1 : 0.9);
    }
  }
  return m;
}

TEST(KMedoidsTest, SeparatesTwoBlobs) {
  KMedoidsOptions opt;
  opt.k = 2;
  auto r = KMedoids(TwoBlobs(), opt).value();
  EXPECT_EQ(r.labels, (Labels{0, 0, 0, 1, 1, 1}));
  EXPECT_EQ(r.medoids.size(), 2u);
}

TEST(KMedoidsTest, KOneGroupsEverything) {
  KMedoidsOptions opt;
  opt.k = 1;
  auto r = KMedoids(TwoBlobs(), opt).value();
  EXPECT_EQ(r.labels, (Labels{0, 0, 0, 0, 0, 0}));
}

TEST(KMedoidsTest, KEqualsNMakesSingletons) {
  KMedoidsOptions opt;
  opt.k = 6;
  auto r = KMedoids(TwoBlobs(), opt).value();
  std::set<int> distinct(r.labels.begin(), r.labels.end());
  EXPECT_EQ(distinct.size(), 6u);
}

TEST(KMedoidsTest, DeterministicAcrossRuns) {
  KMedoidsOptions opt;
  opt.k = 2;
  auto r1 = KMedoids(TwoBlobs(), opt).value();
  auto r2 = KMedoids(TwoBlobs(), opt).value();
  EXPECT_EQ(r1.labels, r2.labels);
  EXPECT_EQ(r1.medoids, r2.medoids);
}

TEST(KMedoidsTest, MedoidsMinimizeWithinClusterCost) {
  distance::DistanceMatrix m(5);
  // Points on a line: 0-1-2-3-4 with distance |i-j|/10.
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = i + 1; j < 5; ++j) {
      m.set(i, j, static_cast<double>(j - i) / 10.0);
    }
  }
  KMedoidsOptions opt;
  opt.k = 1;
  auto r = KMedoids(m, opt).value();
  EXPECT_EQ(r.medoids[0], 2u);  // the middle point
  EXPECT_DOUBLE_EQ(r.total_deviation, (0.2 + 0.1 + 0.0 + 0.1 + 0.2));
}

TEST(KMedoidsTest, InvalidK) {
  EXPECT_FALSE(KMedoids(TwoBlobs(), {0, 10}).ok());
  EXPECT_FALSE(KMedoids(TwoBlobs(), {7, 10}).ok());
}

TEST(KMedoidsTest, IdenticalMatricesGiveIdenticalClusterings) {
  // The DPE property consumer: same matrix (however obtained) -> same labels.
  distance::DistanceMatrix a = TwoBlobs();
  distance::DistanceMatrix b = TwoBlobs();
  KMedoidsOptions opt;
  opt.k = 3;
  EXPECT_EQ(KMedoids(a, opt).value().labels, KMedoids(b, opt).value().labels);
}

TEST(KMedoidsTest, NonFiniteCellIsInvalidArgument) {
  // The medoid selection sorts on these cells; NaN or ±inf would make that
  // comparison order undefined.
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    distance::DistanceMatrix m = TwoBlobs();
    m.set(1, 4, bad);
    KMedoidsOptions opt;
    opt.k = 2;
    EXPECT_EQ(KMedoids(m, opt).status().code(), StatusCode::kInvalidArgument)
        << bad;
  }
}

}  // namespace
}  // namespace dpe::mining
