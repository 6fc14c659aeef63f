// Interval-set algebra over Value, the substrate of query access areas
// (Nguyen et al., [16] in the paper).
//
// All operations are *endpoint-comparison based* — union, intersection,
// complement and equality never use domain arithmetic (no "successor of 5"),
// so any order-isomorphic re-encoding of the endpoints (e.g. OPE encryption)
// maps interval sets to interval sets with identical structure. This is the
// property that makes access-area distance computable on ciphertexts.

#ifndef DPE_DB_INTERVAL_H_
#define DPE_DB_INTERVAL_H_

#include <optional>
#include <string>
#include <vector>

#include "db/value.h"

namespace dpe::db {

/// One endpoint of an interval.
struct IntervalBound {
  Value value;
  bool inclusive = true;

  bool operator==(const IntervalBound& other) const {
    return value == other.value && inclusive == other.inclusive;
  }
};

/// A (possibly unbounded) interval. nullopt bounds mean -inf / +inf.
struct Interval {
  std::optional<IntervalBound> lo;
  std::optional<IntervalBound> hi;

  static Interval All() { return {}; }
  static Interval Point(Value v) {
    return {IntervalBound{v, true}, IntervalBound{std::move(v), true}};
  }
  static Interval Closed(Value lo, Value hi) {
    return {IntervalBound{std::move(lo), true}, IntervalBound{std::move(hi), true}};
  }
  static Interval LessThan(Value v, bool inclusive) {
    return {std::nullopt, IntervalBound{std::move(v), inclusive}};
  }
  static Interval GreaterThan(Value v, bool inclusive) {
    return {IntervalBound{std::move(v), inclusive}, std::nullopt};
  }

  bool IsEmpty() const;
  bool Contains(const Value& v) const;
  std::string ToString() const;

  bool operator==(const Interval& other) const {
    return lo == other.lo && hi == other.hi;
  }
};

/// A normalized set of disjoint intervals (sorted, touching pieces merged).
class IntervalSet {
 public:
  IntervalSet() = default;

  static IntervalSet Empty() { return IntervalSet(); }
  static IntervalSet All() { return Of(Interval::All()); }
  static IntervalSet Of(Interval i);
  static IntervalSet OfAll(std::vector<Interval> intervals);

  bool IsEmpty() const { return intervals_.empty(); }
  const std::vector<Interval>& intervals() const { return intervals_; }

  bool Contains(const Value& v) const;

  IntervalSet Union(const IntervalSet& other) const;
  IntervalSet Intersect(const IntervalSet& other) const;
  /// Complement w.r.t. the full line (clip with a universe set as needed).
  IntervalSet Complement() const;

  /// Same answer as !Intersect(other).IsEmpty(), without building the
  /// intersection.
  bool Intersects(const IntervalSet& other) const;

  /// Structural equality of the normalized representations.
  bool operator==(const IntervalSet& other) const {
    return intervals_ == other.intervals_;
  }
  bool operator!=(const IntervalSet& other) const { return !(*this == other); }

  std::string ToString() const;

 private:
  void Normalize();

  std::vector<Interval> intervals_;
};

}  // namespace dpe::db

#endif  // DPE_DB_INTERVAL_H_
