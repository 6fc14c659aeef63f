#include "db/interval.h"

#include <algorithm>

namespace dpe::db {

namespace {

/// Total order on endpoint values via Value's container order.
int CmpValue(const Value& a, const Value& b) {
  if (a < b) return -1;
  if (b < a) return 1;
  return 0;
}

/// Compares two lower bounds (-inf when nullopt): which starts earlier?
int CmpLo(const std::optional<IntervalBound>& a,
          const std::optional<IntervalBound>& b) {
  if (!a.has_value() && !b.has_value()) return 0;
  if (!a.has_value()) return -1;
  if (!b.has_value()) return 1;
  int c = CmpValue(a->value, b->value);
  if (c != 0) return c;
  // Same value: inclusive starts earlier than exclusive.
  if (a->inclusive == b->inclusive) return 0;
  return a->inclusive ? -1 : 1;
}

/// Compares two upper bounds (+inf when nullopt): which ends later?
int CmpHi(const std::optional<IntervalBound>& a,
          const std::optional<IntervalBound>& b) {
  if (!a.has_value() && !b.has_value()) return 0;
  if (!a.has_value()) return 1;
  if (!b.has_value()) return -1;
  int c = CmpValue(a->value, b->value);
  if (c != 0) return c;
  // Same value: inclusive ends later than exclusive.
  if (a->inclusive == b->inclusive) return 0;
  return a->inclusive ? 1 : -1;
}

/// True when interval `a` (by upper bound) connects to `b` (by lower bound):
/// they overlap or touch with at least one inclusive endpoint.
bool Connects(const std::optional<IntervalBound>& a_hi,
              const std::optional<IntervalBound>& b_lo) {
  if (!a_hi.has_value() || !b_lo.has_value()) return true;
  int c = CmpValue(a_hi->value, b_lo->value);
  if (c > 0) return true;
  if (c < 0) return false;
  return a_hi->inclusive || b_lo->inclusive;
}

/// True when no value lies between `lo` and `hi` (nullopt = unbounded).
bool EmptyBetween(const std::optional<IntervalBound>& lo,
                  const std::optional<IntervalBound>& hi) {
  if (!lo.has_value() || !hi.has_value()) return false;
  int c = CmpValue(lo->value, hi->value);
  if (c > 0) return true;
  if (c == 0) return !(lo->inclusive && hi->inclusive);
  return false;
}

}  // namespace

bool Interval::IsEmpty() const { return EmptyBetween(lo, hi); }

bool Interval::Contains(const Value& v) const {
  if (lo.has_value()) {
    int c = CmpValue(v, lo->value);
    if (c < 0 || (c == 0 && !lo->inclusive)) return false;
  }
  if (hi.has_value()) {
    int c = CmpValue(v, hi->value);
    if (c > 0 || (c == 0 && !hi->inclusive)) return false;
  }
  return true;
}

std::string Interval::ToString() const {
  std::string out;
  out += lo.has_value() ? (lo->inclusive ? "[" : "(") + lo->value.ToDisplayString()
                        : "(-inf";
  out += ", ";
  out += hi.has_value() ? hi->value.ToDisplayString() + (hi->inclusive ? "]" : ")")
                        : "+inf)";
  return out;
}

IntervalSet IntervalSet::Of(Interval i) {
  IntervalSet s;
  if (!i.IsEmpty()) s.intervals_.push_back(std::move(i));
  return s;
}

IntervalSet IntervalSet::OfAll(std::vector<Interval> intervals) {
  IntervalSet s;
  for (auto& i : intervals) {
    if (!i.IsEmpty()) s.intervals_.push_back(std::move(i));
  }
  s.Normalize();
  return s;
}

void IntervalSet::Normalize() {
  if (intervals_.empty()) return;
  std::sort(intervals_.begin(), intervals_.end(),
            [](const Interval& a, const Interval& b) {
              int c = CmpLo(a.lo, b.lo);
              if (c != 0) return c < 0;
              return CmpHi(a.hi, b.hi) < 0;
            });
  std::vector<Interval> merged;
  merged.push_back(intervals_[0]);
  for (size_t i = 1; i < intervals_.size(); ++i) {
    Interval& last = merged.back();
    if (Connects(last.hi, intervals_[i].lo)) {
      if (CmpHi(intervals_[i].hi, last.hi) > 0) last.hi = intervals_[i].hi;
    } else {
      merged.push_back(intervals_[i]);
    }
  }
  intervals_ = std::move(merged);
}

bool IntervalSet::Contains(const Value& v) const {
  for (const Interval& i : intervals_) {
    if (i.Contains(v)) return true;
  }
  return false;
}

IntervalSet IntervalSet::Union(const IntervalSet& other) const {
  IntervalSet out;
  out.intervals_ = intervals_;
  out.intervals_.insert(out.intervals_.end(), other.intervals_.begin(),
                        other.intervals_.end());
  out.Normalize();
  return out;
}

IntervalSet IntervalSet::Intersect(const IntervalSet& other) const {
  std::vector<Interval> pieces;
  for (const Interval& a : intervals_) {
    for (const Interval& b : other.intervals_) {
      Interval piece;
      piece.lo = CmpLo(a.lo, b.lo) >= 0 ? a.lo : b.lo;
      piece.hi = CmpHi(a.hi, b.hi) <= 0 ? a.hi : b.hi;
      if (!piece.IsEmpty()) pieces.push_back(std::move(piece));
    }
  }
  return OfAll(std::move(pieces));
}

bool IntervalSet::Intersects(const IntervalSet& other) const {
  // Intersect's pairwise pieces, tested for emptiness where they lie: no
  // piece (or Value endpoint) is copied.
  for (const Interval& a : intervals_) {
    for (const Interval& b : other.intervals_) {
      const auto& lo = CmpLo(a.lo, b.lo) >= 0 ? a.lo : b.lo;
      const auto& hi = CmpHi(a.hi, b.hi) <= 0 ? a.hi : b.hi;
      if (!EmptyBetween(lo, hi)) return true;
    }
  }
  return false;
}

IntervalSet IntervalSet::Complement() const {
  if (intervals_.empty()) return All();
  std::vector<Interval> out;
  // Gap before the first interval.
  const Interval& first = intervals_.front();
  if (first.lo.has_value()) {
    out.push_back(
        {std::nullopt, IntervalBound{first.lo->value, !first.lo->inclusive}});
  }
  // Gaps between consecutive intervals.
  for (size_t i = 0; i + 1 < intervals_.size(); ++i) {
    const Interval& a = intervals_[i];
    const Interval& b = intervals_[i + 1];
    // Normalized => a.hi and b.lo are finite and disconnected.
    out.push_back({IntervalBound{a.hi->value, !a.hi->inclusive},
                   IntervalBound{b.lo->value, !b.lo->inclusive}});
  }
  // Gap after the last interval.
  const Interval& last = intervals_.back();
  if (last.hi.has_value()) {
    out.push_back(
        {IntervalBound{last.hi->value, !last.hi->inclusive}, std::nullopt});
  }
  return OfAll(std::move(out));
}

std::string IntervalSet::ToString() const {
  if (intervals_.empty()) return "{}";
  std::string out;
  for (size_t i = 0; i < intervals_.size(); ++i) {
    if (i > 0) out += " u ";
    out += intervals_[i].ToString();
  }
  return out;
}

}  // namespace dpe::db
