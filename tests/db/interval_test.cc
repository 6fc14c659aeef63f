#include "db/interval.h"

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <random>
#include <string>
#include <vector>

namespace dpe::db {
namespace {

Value I(int64_t v) { return Value::Int(v); }

TEST(IntervalTest, EmptyDetection) {
  EXPECT_FALSE(Interval::Point(I(5)).IsEmpty());
  EXPECT_FALSE(Interval::Closed(I(1), I(2)).IsEmpty());
  EXPECT_TRUE(Interval::Closed(I(2), I(1)).IsEmpty());
  Interval half_open{IntervalBound{I(1), true}, IntervalBound{I(1), false}};
  EXPECT_TRUE(half_open.IsEmpty());
  EXPECT_FALSE(Interval::All().IsEmpty());
}

TEST(IntervalTest, Contains) {
  Interval iv = Interval::Closed(I(1), I(5));
  EXPECT_TRUE(iv.Contains(I(1)));
  EXPECT_TRUE(iv.Contains(I(5)));
  EXPECT_FALSE(iv.Contains(I(0)));
  Interval open{IntervalBound{I(1), false}, IntervalBound{I(5), false}};
  EXPECT_FALSE(open.Contains(I(1)));
  EXPECT_TRUE(open.Contains(I(2)));
  EXPECT_TRUE(Interval::LessThan(I(3), false).Contains(I(-100)));
  EXPECT_FALSE(Interval::LessThan(I(3), false).Contains(I(3)));
  EXPECT_TRUE(Interval::GreaterThan(I(3), true).Contains(I(3)));
}

TEST(IntervalSetTest, NormalizationMergesOverlaps) {
  auto s = IntervalSet::OfAll(
      {Interval::Closed(I(1), I(5)), Interval::Closed(I(3), I(8))});
  ASSERT_EQ(s.intervals().size(), 1u);
  EXPECT_EQ(s.intervals()[0], Interval::Closed(I(1), I(8)));
}

TEST(IntervalSetTest, NormalizationMergesTouchingWithInclusiveEndpoint) {
  // [1,3] u (3,5] -> [1,5]
  auto s = IntervalSet::OfAll(
      {Interval::Closed(I(1), I(3)),
       Interval{IntervalBound{I(3), false}, IntervalBound{I(5), true}}});
  ASSERT_EQ(s.intervals().size(), 1u);
  EXPECT_EQ(s.intervals()[0], Interval::Closed(I(1), I(5)));
}

TEST(IntervalSetTest, NoMergeWhenBothExclusive) {
  // [1,3) u (3,5] stays two pieces: 3 is in neither.
  auto s = IntervalSet::OfAll(
      {Interval{IntervalBound{I(1), true}, IntervalBound{I(3), false}},
       Interval{IntervalBound{I(3), false}, IntervalBound{I(5), true}}});
  EXPECT_EQ(s.intervals().size(), 2u);
}

TEST(IntervalSetTest, NoDiscreteAdjacencyMerge) {
  // [1,2] u [3,4] must NOT merge: merging would require successor arithmetic,
  // which does not commute with order-preserving re-encodings.
  auto s = IntervalSet::OfAll(
      {Interval::Closed(I(1), I(2)), Interval::Closed(I(3), I(4))});
  EXPECT_EQ(s.intervals().size(), 2u);
}

TEST(IntervalSetTest, UnionAndIntersect) {
  auto a = IntervalSet::Of(Interval::Closed(I(1), I(5)));
  auto b = IntervalSet::Of(Interval::Closed(I(4), I(9)));
  auto u = a.Union(b);
  ASSERT_EQ(u.intervals().size(), 1u);
  EXPECT_EQ(u.intervals()[0], Interval::Closed(I(1), I(9)));
  auto i = a.Intersect(b);
  ASSERT_EQ(i.intervals().size(), 1u);
  EXPECT_EQ(i.intervals()[0], Interval::Closed(I(4), I(5)));
}

TEST(IntervalSetTest, DisjointIntersectionIsEmpty) {
  auto a = IntervalSet::Of(Interval::Closed(I(1), I(2)));
  auto b = IntervalSet::Of(Interval::Closed(I(5), I(6)));
  EXPECT_TRUE(a.Intersect(b).IsEmpty());
  EXPECT_FALSE(a.Intersects(b));
}

TEST(IntervalSetTest, PointIntersection) {
  auto a = IntervalSet::Of(Interval::Closed(I(1), I(5)));
  auto p = IntervalSet::Of(Interval::Point(I(5)));
  EXPECT_TRUE(a.Intersects(p));
  auto edge = IntervalSet::Of(
      Interval{IntervalBound{I(1), true}, IntervalBound{I(5), false}});
  EXPECT_FALSE(edge.Intersects(p));
}

TEST(IntervalSetTest, ComplementOfPoint) {
  auto c = IntervalSet::Of(Interval::Point(I(5))).Complement();
  ASSERT_EQ(c.intervals().size(), 2u);
  EXPECT_FALSE(c.Contains(I(5)));
  EXPECT_TRUE(c.Contains(I(4)));
  EXPECT_TRUE(c.Contains(I(6)));
  // Complement twice is identity.
  EXPECT_EQ(c.Complement(), IntervalSet::Of(Interval::Point(I(5))));
}

TEST(IntervalSetTest, ComplementOfEmptyAndAll) {
  EXPECT_EQ(IntervalSet::Empty().Complement(), IntervalSet::All());
  EXPECT_EQ(IntervalSet::All().Complement(), IntervalSet::Empty());
}

TEST(IntervalSetTest, ComplementOfUnion) {
  auto s = IntervalSet::OfAll(
      {Interval::Closed(I(1), I(2)), Interval::Closed(I(5), I(6))});
  auto c = s.Complement();
  ASSERT_EQ(c.intervals().size(), 3u);
  EXPECT_TRUE(c.Contains(I(0)));
  EXPECT_TRUE(c.Contains(I(3)));
  EXPECT_TRUE(c.Contains(I(7)));
  EXPECT_FALSE(c.Contains(I(1)));
  EXPECT_FALSE(c.Contains(I(6)));
}

TEST(IntervalSetTest, EqualityAfterNormalization) {
  auto a = IntervalSet::OfAll(
      {Interval::Closed(I(1), I(3)), Interval::Closed(I(2), I(7))});
  auto b = IntervalSet::Of(Interval::Closed(I(1), I(7)));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, IntervalSet::Of(Interval::Closed(I(1), I(8))));
}

TEST(IntervalSetTest, StringEndpoints) {
  auto a = IntervalSet::Of(Interval::Closed(Value::String("berlin"),
                                            Value::String("paris")));
  EXPECT_TRUE(a.Contains(Value::String("london")));
  EXPECT_FALSE(a.Contains(Value::String("amsterdam")));
  auto p = IntervalSet::Of(Interval::Point(Value::String("rome")));
  EXPECT_FALSE(a.Intersects(p));
}

TEST(IntervalSetTest, MembershipAgreesWithBruteForce) {
  // Property check: set algebra vs direct membership evaluation.
  auto a = IntervalSet::OfAll(
      {Interval::Closed(I(0), I(10)),
       Interval{IntervalBound{I(20), false}, IntervalBound{I(30), false}}});
  auto b = IntervalSet::OfAll(
      {Interval::Closed(I(5), I(25))});
  auto u = a.Union(b);
  auto i = a.Intersect(b);
  auto c = a.Complement();
  for (int64_t v = -5; v <= 35; ++v) {
    bool in_a = a.Contains(I(v));
    bool in_b = b.Contains(I(v));
    EXPECT_EQ(u.Contains(I(v)), in_a || in_b) << v;
    EXPECT_EQ(i.Contains(I(v)), in_a && in_b) << v;
    EXPECT_EQ(c.Contains(I(v)), !in_a) << v;
  }
}

TEST(IntervalSetTest, IntersectsIsFalseWhenOnlyAnExclusiveEndpointIsShared) {
  auto closed = IntervalSet::Of(Interval::Closed(I(1), I(2)));
  auto open_right = IntervalSet::Of(
      Interval{IntervalBound{I(2), false}, IntervalBound{I(3), true}});
  auto open_left = IntervalSet::Of(
      Interval{IntervalBound{I(0), true}, IntervalBound{I(1), false}});
  EXPECT_FALSE(closed.Intersects(open_right));
  EXPECT_FALSE(open_right.Intersects(closed));
  EXPECT_FALSE(closed.Intersects(open_left));
  EXPECT_TRUE(closed.Intersects(IntervalSet::Of(Interval::Point(I(2)))));
  EXPECT_TRUE(closed.Intersects(IntervalSet::Of(Interval::Closed(I(2), I(9)))));
  auto below = IntervalSet::Of(Interval::LessThan(I(5), false));
  auto from = IntervalSet::Of(Interval::GreaterThan(I(5), true));
  EXPECT_FALSE(below.Intersects(from));
  EXPECT_TRUE(IntervalSet::All().Intersects(closed));
  EXPECT_FALSE(IntervalSet::Empty().Intersects(IntervalSet::All()));
}

// Property: Intersects equals !Intersect(other).IsEmpty() on random sets
// of open, closed, half-open, unbounded and point intervals whose endpoints
// come from a small pool, so shared and touching endpoints are common.
TEST(IntervalSetTest, IntersectsAgreesWithIntersectOnRandomSets) {
  const std::vector<std::function<Value(int)>> kinds = {
      [](int k) { return Value::Int(k); },
      [](int k) { return Value::Double(k * 0.5); },
      [](int k) {
        return Value::String(std::string(1, static_cast<char>('a' + k)));
      },
  };
  std::mt19937 rng(20260417);
  std::uniform_int_distribution<int> point(0, 6);
  std::uniform_int_distribution<int> shape(0, 9);
  std::uniform_int_distribution<int> count(0, 3);
  for (const auto& make : kinds) {
    auto random_interval = [&]() -> Interval {
      int lo = point(rng), hi = point(rng);
      if (lo > hi) std::swap(lo, hi);
      const bool lo_in = rng() % 2 == 0, hi_in = rng() % 2 == 0;
      std::optional<IntervalBound> lo_bound = IntervalBound{make(lo), lo_in};
      std::optional<IntervalBound> hi_bound = IntervalBound{make(hi), hi_in};
      switch (shape(rng)) {
        case 0:
          return Interval::Point(make(lo));
        case 1:
          return Interval{std::nullopt, hi_bound};
        case 2:
          return Interval{lo_bound, std::nullopt};
        case 3:
          return Interval::All();
        default:
          return Interval{lo_bound, hi_bound};
      }
    };
    auto random_set = [&] {
      std::vector<Interval> pieces;
      for (int k = count(rng); k > 0; --k) pieces.push_back(random_interval());
      return IntervalSet::OfAll(std::move(pieces));
    };
    for (int round = 0; round < 2000; ++round) {
      const IntervalSet a = random_set();
      const IntervalSet b = random_set();
      const bool expect = !a.Intersect(b).IsEmpty();
      EXPECT_EQ(a.Intersects(b), expect)
          << a.ToString() << " vs " << b.ToString();
      EXPECT_EQ(b.Intersects(a), expect)
          << b.ToString() << " vs " << a.ToString();
    }
  }
}

}  // namespace
}  // namespace dpe::db
