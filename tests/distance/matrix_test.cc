// DistanceMatrix: the bounds-checked accessors (at/set used to silently
// read/write out of bounds for any caller other than MaxAbsDifference) and
// the packed lower-triangle layout — symmetric reads, an implied zero
// diagonal, GatherRow, FromPacked, and the engine handing out the memo's
// own triangle.

#include "distance/matrix.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>

#include "engine/engine.h"
#include "store/matrix_store.h"
#include "tests/scenario_test_util.h"

namespace dpe::distance {
namespace {

/// n x n matrix whose cell (i, j), i > j, is i + j / 1000 — every cell
/// distinct, so a misplaced index shows.
DistanceMatrix Numbered(size_t n) {
  DistanceMatrix m(n);
  for (size_t i = 1; i < n; ++i) {
    for (size_t j = 0; j < i; ++j) {
      EXPECT_TRUE(m.Set(i, j, static_cast<double>(i) + j / 1000.0).ok());
    }
  }
  return m;
}

TEST(DistanceMatrixTest, CheckedAtReadsInRange) {
  DistanceMatrix m(3);
  m.set(0, 2, 0.25);
  auto d = m.At(0, 2);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, 0.25);
  auto mirrored = m.At(2, 0);
  ASSERT_TRUE(mirrored.ok());
  EXPECT_EQ(*mirrored, 0.25);
}

TEST(DistanceMatrixTest, CheckedAtRejectsOutOfRange) {
  DistanceMatrix m(3);
  EXPECT_EQ(m.At(3, 0).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(m.At(0, 3).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(m.At(100, 100).status().code(), StatusCode::kOutOfRange);
}

TEST(DistanceMatrixTest, CheckedSetWritesSymmetrically) {
  DistanceMatrix m(4);
  ASSERT_TRUE(m.Set(1, 3, 0.5).ok());
  EXPECT_EQ(m.at(1, 3), 0.5);
  EXPECT_EQ(m.at(3, 1), 0.5);
}

TEST(DistanceMatrixTest, CheckedSetRejectsOutOfRange) {
  DistanceMatrix m(2);
  EXPECT_EQ(m.Set(2, 0, 0.1).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(m.Set(0, 2, 0.1).code(), StatusCode::kOutOfRange);
  // The matrix must be untouched by the failed write.
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 2; ++j) EXPECT_EQ(m.at(i, j), 0.0);
  }
}

TEST(DistanceMatrixTest, EmptyMatrixRejectsEverything) {
  DistanceMatrix m;
  EXPECT_EQ(m.size(), 0u);
  EXPECT_FALSE(m.At(0, 0).ok());
  EXPECT_FALSE(m.Set(0, 0, 1.0).ok());
}

TEST(DistanceMatrixTest, MaxAbsDifferenceSizeMismatch) {
  DistanceMatrix a(2), b(3);
  EXPECT_EQ(DistanceMatrix::MaxAbsDifference(a, b).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DistanceMatrixTest, ReadsAreSymmetricWithZeroDiagonal) {
  const DistanceMatrix m = Numbered(7);
  for (size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(*m.At(i, i), 0.0);
    for (size_t j = 0; j < 7; ++j) {
      EXPECT_EQ(*m.At(i, j), *m.At(j, i)) << i << ", " << j;
      EXPECT_EQ(m.at(i, j), *m.At(i, j));
    }
  }
  EXPECT_EQ(m.at(5, 2), 5.002);
  EXPECT_EQ(m.at(2, 5), 5.002);
}

TEST(DistanceMatrixTest, PackedIsTheLowerTriangleByRows) {
  const DistanceMatrix m = Numbered(5);
  ASSERT_EQ(m.packed().size(), TriangleCells(5));
  size_t k = 0;
  for (size_t i = 1; i < 5; ++i) {
    for (size_t j = 0; j < i; ++j) EXPECT_EQ(m.packed()[k++], m.at(i, j));
  }
}

TEST(DistanceMatrixTest, NonzeroDiagonalSetIsRejectedAndLeavesMatrix) {
  DistanceMatrix m = Numbered(4);
  const std::vector<double> before(m.packed().begin(), m.packed().end());
  EXPECT_EQ(m.Set(2, 2, 0.5).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(m.at(2, 2), 0.0);
  EXPECT_TRUE(m.Set(2, 2, 0.0).ok());  // the value the diagonal holds
  EXPECT_EQ(std::vector<double>(m.packed().begin(), m.packed().end()),
            before);
}

TEST(DistanceMatrixTest, FromPackedAndTakePackedMoveTheTriangle) {
  EXPECT_EQ(DistanceMatrix::FromPacked(4, std::vector<double>(5))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DistanceMatrix::FromPacked(4, std::vector<double>(16))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DistanceMatrix::FromPacked(0, std::vector<double>(1))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  auto m = DistanceMatrix::FromPacked(4, {1, 2, 3, 4, 5, 6});
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_EQ(m->at(1, 0), 1.0);
  EXPECT_EQ(m->at(0, 2), 2.0);
  EXPECT_EQ(m->at(2, 1), 3.0);
  EXPECT_EQ(m->at(3, 2), 6.0);
  EXPECT_EQ(std::move(*m).TakePacked(),
            (std::vector<double>{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(m->size(), 0u);
  EXPECT_TRUE(m->packed().empty());
  EXPECT_TRUE(DistanceMatrix::FromPacked(0, {}).ok());
  EXPECT_TRUE(DistanceMatrix::FromPacked(1, {}).ok());
}

TEST(DistanceMatrixTest, GatherRowEqualsAtAcrossTheRow) {
  for (size_t n : {0, 1, 2, 5, 64}) {
    const DistanceMatrix m = Numbered(n);
    std::vector<double> row(n + 1, -1.0);
    for (size_t i = 0; i < n; ++i) {
      m.GatherRow(i, row.data());
      for (size_t j = 0; j < n; ++j) {
        ASSERT_EQ(row[j], *m.At(i, j)) << "n=" << n << " (" << i << ", " << j
                                       << ")";
      }
      ASSERT_EQ(row[n], -1.0) << "n=" << n << ": wrote past the row";
    }
  }
}

TEST(DistanceMatrixTest, BuildMatrixHandsOutTheMemoTriangle) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::path(::testing::TempDir()) / "matrix_test_memo_triangle").string();
  fs::remove_all(dir);
  workload::Scenario s = testutil::Shop(19, 14);
  engine::Engine engine(s.Context(), {.threads = 2, .block = 4});
  engine.SetLog({s.log.begin(), s.log.end() - 3});
  ASSERT_TRUE(engine.BuildMatrix("token").ok());
  for (size_t q = s.log.size() - 3; q < s.log.size(); ++q) {
    ASSERT_TRUE(engine.AddQuery(s.log[q]).ok());
  }
  auto m = engine.BuildMatrix("token");
  ASSERT_TRUE(m.ok()) << m.status();
  ASSERT_EQ(m->size(), s.log.size());

  ASSERT_TRUE(engine.SaveCheckpoint(dir).ok());
  auto stored = store::MatrixStore::OpenExisting(dir);
  ASSERT_TRUE(stored.ok()) << stored.status();
  auto snapshot = stored->ReadSnapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  const store::Triangle& memo = snapshot->triangles.at("token");
  ASSERT_EQ(memo.rows, s.log.size());
  ASSERT_EQ(memo.cells.size(), m->packed().size());
  EXPECT_EQ(std::memcmp(memo.cells.data(), m->packed().data(),
                        memo.cells.size() * sizeof(double)),
            0);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace dpe::distance
