// Pairwise distance matrices: the interface between the distance layer and
// the distance-based mining algorithms.

#ifndef DPE_DISTANCE_MATRIX_H_
#define DPE_DISTANCE_MATRIX_H_

#include <cassert>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "distance/measure.h"

namespace dpe::distance {

/// Cells in the first `rows` rows of a packed lower triangle: row r holds r
/// cells, so rows(rows - 1) / 2. Row r starts at offset TriangleCells(r).
constexpr uint64_t TriangleCells(uint64_t rows) {
  return rows < 2 ? 0 : rows * (rows - 1) / 2;
}

/// Symmetric n x n matrix with zero diagonal, stored as its packed lower
/// triangle by rows: d(i, j) for i > j at i(i-1)/2 + j, TriangleCells(n)
/// doubles in all, the diagonal implied. This is the layout of the
/// engine's memo, the snapshot body and the journal's row records
/// (store::Triangle), so a build copies the stored prefix with one memcpy
/// and appends the new rows after it, and the miners read it in place.
///
/// Reads are symmetric and return 0 on the diagonal; a write stores the one
/// cell both (i, j) and (j, i) name. The diagonal is not stored, so it
/// cannot be written: `Set(i, i, d)` is InvalidArgument for d != 0 and
/// `SetUnchecked` debug-asserts i != j.
///
/// `AtUnchecked`/`SetUnchecked` are the unchecked hot-path accessors
/// (debug-asserted only) for the mining/builder inner loops, whose indices
/// are loop-bounded by construction; `at`/`set` are their general-purpose
/// aliases, and `At`/`Set` are the bounds-checked variants for callers
/// handling untrusted indices. Row scans use `GatherRow` instead of n
/// `AtUnchecked` calls.
class DistanceMatrix {
 public:
  DistanceMatrix() = default;
  explicit DistanceMatrix(size_t n) : n_(n), cells_(TriangleCells(n), 0.0) {}

  /// Adopts `packed` (TriangleCells(n) cells in the layout above) without a
  /// copy; InvalidArgument on any other size.
  static Result<DistanceMatrix> FromPacked(size_t n,
                                           std::vector<double>&& packed);

  size_t size() const { return n_; }

  /// The stored cells: row i (d(i, 0..i-1)) at offset TriangleCells(i).
  std::span<const double> packed() const { return cells_; }
  /// Moves the stored cells out (FromPacked's inverse), leaving a 0 x 0
  /// matrix.
  std::vector<double> TakePacked() && {
    n_ = 0;
    return std::exchange(cells_, {});
  }

  /// Unchecked symmetric read for hot loops; i and j must be < size().
  double AtUnchecked(size_t i, size_t j) const {
    assert(i < n_ && j < n_ && "DistanceMatrix::AtUnchecked out of range");
    if (i == j) return 0.0;
    return i > j ? cells_[i * (i - 1) / 2 + j] : cells_[j * (j - 1) / 2 + i];
  }
  /// Unchecked write of the cell (i, j) and (j, i) share; i and j must be
  /// < size() and distinct.
  void SetUnchecked(size_t i, size_t j, double d) {
    assert(i < n_ && j < n_ && "DistanceMatrix::SetUnchecked out of range");
    assert(i != j && "DistanceMatrix::SetUnchecked on the diagonal");
    cells_[i > j ? i * (i - 1) / 2 + j : j * (j - 1) / 2 + i] = d;
  }

  /// Writes row i, d(i, 0..n-1), into out[0..n): a memcpy of the stored
  /// prefix d(i, 0..i-1), the 0 diagonal, then a walk down column i (one
  /// strided read per later row). O(n); i must be < size().
  void GatherRow(size_t i, double* out) const;

  double at(size_t i, size_t j) const { return AtUnchecked(i, j); }
  void set(size_t i, size_t j, double d) { SetUnchecked(i, j, d); }

  /// Bounds-checked read.
  Result<double> At(size_t i, size_t j) const;
  /// Bounds-checked symmetric write; InvalidArgument (matrix untouched) for
  /// a nonzero diagonal cell, which the layout cannot hold.
  Status Set(size_t i, size_t j, double d);

  /// InvalidArgument naming the first NaN or ±inf cell. The miners call it
  /// before anything else: their comparisons, sorts and merge orders are
  /// undefined on such cells, and matrices can come from untrusted bytes
  /// (snapshots, shard frames).
  Status CheckFinite() const;

  /// Max |a - b| over all cells; matrices must have equal size.
  static Result<double> MaxAbsDifference(const DistanceMatrix& a,
                                         const DistanceMatrix& b);

  /// Computes all pairwise distances of `queries` under `measure`, serially:
  /// one Prepare, then cell (i, j) = Distance(i, j) for i < j. The engine's
  /// parallel builder is tested bit-identical against it.
  static Result<DistanceMatrix> Compute(
      const std::vector<sql::SelectQuery>& queries,
      const QueryDistanceMeasure& measure, const MeasureContext& context);

 private:
  size_t n_ = 0;
  std::vector<double> cells_;
};

}  // namespace dpe::distance

#endif  // DPE_DISTANCE_MATRIX_H_
