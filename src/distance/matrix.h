// Pairwise distance matrices: the interface between the distance layer and
// the distance-based mining algorithms.

#ifndef DPE_DISTANCE_MATRIX_H_
#define DPE_DISTANCE_MATRIX_H_

#include <cassert>
#include <vector>

#include "distance/measure.h"

namespace dpe::distance {

/// Symmetric n x n matrix with zero diagonal.
///
/// `AtUnchecked`/`SetUnchecked` are the unchecked hot-path accessors
/// (debug-asserted only) for the mining/builder inner loops, whose indices
/// are loop-bounded by construction; `at`/`set` are their general-purpose
/// aliases, and `At`/`Set` are the bounds-checked variants for callers
/// handling untrusted indices.
class DistanceMatrix {
 public:
  DistanceMatrix() = default;
  explicit DistanceMatrix(size_t n) : n_(n), cells_(n * n, 0.0) {}

  size_t size() const { return n_; }

  /// Unchecked read for hot loops; i and j must be < size().
  double AtUnchecked(size_t i, size_t j) const {
    assert(i < n_ && j < n_ && "DistanceMatrix::AtUnchecked out of range");
    return cells_[i * n_ + j];
  }
  /// Unchecked symmetric write for hot loops; i and j must be < size().
  void SetUnchecked(size_t i, size_t j, double d) {
    assert(i < n_ && j < n_ && "DistanceMatrix::SetUnchecked out of range");
    cells_[i * n_ + j] = d;
    cells_[j * n_ + i] = d;
  }

  /// Contiguous row i (n doubles) — the input of the SIMD argmin row kernel
  /// (kNN selection) and of complete link's triangle fill. i must be <
  /// size().
  const double* RowUnchecked(size_t i) const {
    assert(i < n_ && "DistanceMatrix::RowUnchecked out of range");
    return cells_.data() + i * n_;
  }

  double at(size_t i, size_t j) const { return AtUnchecked(i, j); }
  void set(size_t i, size_t j, double d) { SetUnchecked(i, j, d); }

  /// Bounds-checked read.
  Result<double> At(size_t i, size_t j) const;
  /// Bounds-checked symmetric write.
  Status Set(size_t i, size_t j, double d);

  /// InvalidArgument naming the first NaN or ±inf cell of rows
  /// [begin_row, end_row). The miners call it before anything else: their
  /// comparisons, sorts and merge orders are undefined on such cells, and
  /// matrices can come from untrusted bytes (snapshots, shard frames).
  Status CheckFiniteRows(size_t begin_row, size_t end_row) const;
  /// CheckFiniteRows over every row.
  Status CheckFinite() const { return CheckFiniteRows(0, n_); }

  /// Max |a - b| over all cells; matrices must have equal size.
  static Result<double> MaxAbsDifference(const DistanceMatrix& a,
                                         const DistanceMatrix& b);

  /// Upper triangle (row-major, i < j) — n(n-1)/2 cells, the serialization
  /// layout of the store codec and the planned shard exchange format.
  std::vector<double> UpperTriangle() const;
  /// Rebuilds the symmetric matrix (zero diagonal) from UpperTriangle()
  /// output; InvalidArgument unless upper.size() == n(n-1)/2.
  static Result<DistanceMatrix> FromUpperTriangle(
      size_t n, const std::vector<double>& upper);

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
