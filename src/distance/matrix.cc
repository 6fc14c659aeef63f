#include "distance/matrix.h"

#include <cmath>
#include <cstring>
#include <string>

namespace dpe::distance {

namespace {

Status IndexError(const char* what, size_t i, size_t j, size_t n) {
  return Status::OutOfRange(std::string(what) + ": (" + std::to_string(i) +
                            ", " + std::to_string(j) + ") outside " +
                            std::to_string(n) + " x " + std::to_string(n) +
                            " matrix");
}

}  // namespace

Result<DistanceMatrix> DistanceMatrix::FromPacked(
    size_t n, std::vector<double>&& packed) {
  if (packed.size() != TriangleCells(n)) {
    return Status::InvalidArgument(
        "DistanceMatrix::FromPacked: " + std::to_string(packed.size()) +
        " cells for n = " + std::to_string(n));
  }
  DistanceMatrix m;
  m.n_ = n;
  m.cells_ = std::move(packed);
  return m;
}

void DistanceMatrix::GatherRow(size_t i, double* out) const {
  assert(i < n_ && "DistanceMatrix::GatherRow out of range");
  const double* cells = cells_.data();
  if (i > 0) std::memcpy(out, cells + TriangleCells(i), i * sizeof(double));
  out[i] = 0.0;
  // Row j > i starts at TriangleCells(j), j cells past row j - 1's start.
  size_t at = TriangleCells(i + 1) + i;
  for (size_t j = i + 1; j < n_; at += j, ++j) out[j] = cells[at];
}

Result<double> DistanceMatrix::At(size_t i, size_t j) const {
  if (i >= n_ || j >= n_) return IndexError("DistanceMatrix::At", i, j, n_);
  return AtUnchecked(i, j);
}

Status DistanceMatrix::Set(size_t i, size_t j, double d) {
  if (i >= n_ || j >= n_) return IndexError("DistanceMatrix::Set", i, j, n_);
  if (i == j) {
    if (d == 0.0) return Status::OK();
    return Status::InvalidArgument("DistanceMatrix::Set: diagonal cell (" +
                                   std::to_string(i) + ", " +
                                   std::to_string(i) + ") is always 0");
  }
  SetUnchecked(i, j, d);
  return Status::OK();
}

Status DistanceMatrix::CheckFinite() const {
  for (size_t i = 1, k = 0; i < n_; ++i) {
    for (size_t j = 0; j < i; ++j, ++k) {
      if (!std::isfinite(cells_[k])) {
        return Status::InvalidArgument("distance(" + std::to_string(i) + ", " +
                                       std::to_string(j) + ") is not finite");
      }
    }
  }
  return Status::OK();
}

Result<double> DistanceMatrix::MaxAbsDifference(const DistanceMatrix& a,
                                                const DistanceMatrix& b) {
  if (a.size() != b.size()) {
    return Status::InvalidArgument("matrix size mismatch");
  }
  double max_diff = 0.0;
  for (size_t i = 0; i < a.cells_.size(); ++i) {
    max_diff = std::max(max_diff, std::fabs(a.cells_[i] - b.cells_[i]));
  }
  return max_diff;
}

Result<DistanceMatrix> DistanceMatrix::Compute(
    const std::vector<sql::SelectQuery>& queries,
    const QueryDistanceMeasure& measure, const MeasureContext& context) {
  DPE_ASSIGN_OR_RETURN(std::unique_ptr<PreparedLog> log,
                       measure.Prepare(QueryList(queries), context));
  DistanceMatrix m(queries.size());
  // Packed order: row j holds Distance(i, j) for i < j, smaller index first.
  double* cell = m.cells_.data();
  for (size_t j = 1; j < queries.size(); ++j) {
    for (size_t i = 0; i < j; ++i) *cell++ = log->Distance(i, j);
  }
  return m;
}

}  // namespace dpe::distance
