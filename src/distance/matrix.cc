#include "distance/matrix.h"

#include <cmath>
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

Result<double> DistanceMatrix::At(size_t i, size_t j) const {
  if (i >= n_ || j >= n_) return IndexError("DistanceMatrix::At", i, j, n_);
  return cells_[i * n_ + j];
}

Status DistanceMatrix::Set(size_t i, size_t j, double d) {
  if (i >= n_ || j >= n_) return IndexError("DistanceMatrix::Set", i, j, n_);
  cells_[i * n_ + j] = d;
  cells_[j * n_ + i] = d;
  return Status::OK();
}

Status DistanceMatrix::CheckFiniteRows(size_t begin_row,
                                       size_t end_row) const {
  for (size_t i = begin_row; i < end_row && i < n_; ++i) {
    const double* row = RowUnchecked(i);
    for (size_t j = 0; j < n_; ++j) {
      if (!std::isfinite(row[j])) {
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

std::vector<double> DistanceMatrix::UpperTriangle() const {
  std::vector<double> upper;
  upper.reserve(n_ * (n_ - 1) / 2);
  for (size_t i = 0; i < n_; ++i) {
    for (size_t j = i + 1; j < n_; ++j) {
      upper.push_back(cells_[i * n_ + j]);
    }
  }
  return upper;
}

Result<DistanceMatrix> DistanceMatrix::FromUpperTriangle(
    size_t n, const std::vector<double>& upper) {
  if (upper.size() != n * (n - 1) / 2) {
    return Status::InvalidArgument(
        "DistanceMatrix::FromUpperTriangle: " + std::to_string(upper.size()) +
        " cells for n = " + std::to_string(n));
  }
  DistanceMatrix m(n);
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      m.set(i, j, upper[k++]);
    }
  }
  return m;
}

Result<DistanceMatrix> DistanceMatrix::Compute(
    const std::vector<sql::SelectQuery>& queries,
    const QueryDistanceMeasure& measure, const MeasureContext& context) {
  DPE_ASSIGN_OR_RETURN(std::unique_ptr<PreparedLog> log,
                       measure.Prepare(QueryList(queries), context));
  DistanceMatrix m(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    for (size_t j = i + 1; j < queries.size(); ++j) {
      m.set(i, j, log->Distance(i, j));
    }
  }
  return m;
}

}  // namespace dpe::distance
