#include "la/sparse.h"

#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace turbo::la {
namespace {

SparseMatrix MakeExample() {
  // [[0, 2, 0],
  //  [1, 0, 3],
  //  [0, 0, 0],
  //  [4, 5, 0]]
  return SparseMatrix::FromTriplets(
      4, 3, {{0, 1, 2.0f}, {1, 0, 1.0f}, {1, 2, 3.0f}, {3, 0, 4.0f},
             {3, 1, 5.0f}});
}

TEST(SparseTest, FromTripletsShapeAndNnz) {
  auto m = MakeExample();
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.nnz(), 5u);
}

TEST(SparseTest, CsrArraysAre64ByteAligned) {
  auto m = MakeExample();
  EXPECT_EQ(
      reinterpret_cast<uintptr_t>(m.row_ptr().data()) % kMatrixAlignment, 0u);
  EXPECT_EQ(
      reinterpret_cast<uintptr_t>(m.col_idx().data()) % kMatrixAlignment, 0u);
  EXPECT_EQ(
      reinterpret_cast<uintptr_t>(m.values().data()) % kMatrixAlignment, 0u);
}

TEST(SparseTest, CsrArraysStayAlignedAcrossSizesAndOperations) {
  auto aligned = [](const void* p) {
    return reinterpret_cast<uintptr_t>(p) % kMatrixAlignment == 0;
  };
  // nnz on both sides of glibc's mmap threshold (128 KiB by default).
  for (uint32_t nnz : {1u, 17u, 4096u, 300000u}) {
    SCOPED_TRACE(nnz);
    std::vector<Triplet> triplets;
    triplets.reserve(nnz);
    for (uint32_t i = 0; i < nnz; ++i) triplets.push_back({i, i, 1.0f});
    SparseMatrix m = SparseMatrix::FromTriplets(nnz, nnz, triplets);
    SparseMatrix copy(m);
    SparseMatrix moved(std::move(copy));
    SparseMatrix assigned = MakeExample();
    assigned = m;
    for (const SparseMatrix* s : {&m, &moved, &assigned}) {
      ASSERT_EQ(s->nnz(), nnz);
      EXPECT_TRUE(aligned(s->row_ptr().data()));
      EXPECT_TRUE(aligned(s->col_idx().data()));
      EXPECT_TRUE(aligned(s->values().data()));
    }
  }
}

TEST(SparseTest, DuplicatesAreSummed) {
  auto m = SparseMatrix::FromTriplets(
      2, 2, {{0, 0, 1.0f}, {0, 0, 2.5f}, {1, 1, 1.0f}});
  EXPECT_EQ(m.nnz(), 2u);
  Matrix d = m.ToDense();
  EXPECT_FLOAT_EQ(d(0, 0), 3.5f);
}

TEST(SparseTest, ToDenseRoundTrip) {
  auto m = MakeExample();
  Matrix d = m.ToDense();
  EXPECT_FLOAT_EQ(d(0, 1), 2.0f);
  EXPECT_FLOAT_EQ(d(1, 2), 3.0f);
  EXPECT_FLOAT_EQ(d(2, 0), 0.0f);
  EXPECT_FLOAT_EQ(d(3, 1), 5.0f);
}

TEST(SparseTest, MultiplyMatchesDense) {
  auto m = MakeExample();
  Rng rng(1);
  Matrix x = Matrix::Randn(3, 5, &rng);
  EXPECT_TRUE(AllClose(m.Multiply(x), MatMul(m.ToDense(), x)));
}

TEST(SparseTest, MultiplyTransposedMatchesDense) {
  auto m = MakeExample();
  Rng rng(2);
  Matrix x = Matrix::Randn(4, 5, &rng);
  EXPECT_TRUE(
      AllClose(m.MultiplyTransposed(x), MatMul(Transpose(m.ToDense()), x)));
}

TEST(SparseTest, RowSums) {
  auto m = MakeExample();
  Matrix rs = m.RowSums();
  EXPECT_FLOAT_EQ(rs(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(rs(1, 0), 4.0f);
  EXPECT_FLOAT_EQ(rs(2, 0), 0.0f);
  EXPECT_FLOAT_EQ(rs(3, 0), 9.0f);
}

TEST(SparseTest, RowNormalizedRowsSumToOne) {
  auto m = MakeExample().RowNormalized();
  Matrix rs = m.RowSums();
  EXPECT_NEAR(rs(0, 0), 1.0f, 1e-6f);
  EXPECT_NEAR(rs(1, 0), 1.0f, 1e-6f);
  EXPECT_FLOAT_EQ(rs(2, 0), 0.0f);  // empty row stays zero
  EXPECT_NEAR(rs(3, 0), 1.0f, 1e-6f);
}

TEST(SparseTest, EmptyMatrix) {
  auto m = SparseMatrix::FromTriplets(3, 3, {});
  EXPECT_EQ(m.nnz(), 0u);
  Matrix x(3, 2, 1.0f);
  Matrix y = m.Multiply(x);
  EXPECT_DOUBLE_EQ(y.Sum(), 0.0);
}

TEST(SparseDeathTest, OutOfRangeTripletAborts) {
  EXPECT_DEATH(SparseMatrix::FromTriplets(2, 2, {{2, 0, 1.0f}}),
               "CHECK failed");
}

TEST(SparseTest, SelectRowsTimesGatheredRowsEqualsRowsOfProduct) {
  // Rows 3 and 1, in that order, under the identity column map.
  const auto m = MakeExample();
  const SparseMatrix sel = m.SelectRows({3, 1}, {0, 1, 2}, 3);
  EXPECT_EQ(sel.nnz(), 4u);
  EXPECT_TRUE(AllClose(sel.ToDense(),
                       Matrix::FromRows({{4, 5, 0}, {1, 0, 3}}), 0.0f, 0.0f));

  // Row 1 reads columns 0 and 2 only; renumber them 0 and 1, and the
  // product with those rows of x matches row 1 of the full product.
  const SparseMatrix row1 = m.SelectRows({1}, {0, -1, 1}, 2);
  Rng rng(3);
  const Matrix x = Matrix::Randn(3, 5, &rng);
  const Matrix full = m.Multiply(x);
  const Matrix got = row1.Multiply(GatherRows(x, {0, 2}));
  ASSERT_EQ(got.rows(), 1u);
  for (size_t j = 0; j < x.cols(); ++j) {
    EXPECT_EQ(got(0, j), full(1, j)) << j;  // same terms, same order
  }
}

TEST(SparseDeathTest, SelectRowsRejectsUnmappedColumn) {
  EXPECT_DEATH(MakeExample().SelectRows({3}, {0, -1, 1}, 2),
               "CHECK failed");
}

TEST(SparseTest, LargeRandomAgainstDense) {
  Rng rng(7);
  std::vector<Triplet> trips;
  for (int i = 0; i < 500; ++i) {
    trips.push_back({static_cast<uint32_t>(rng.NextUint(40)),
                     static_cast<uint32_t>(rng.NextUint(30)),
                     static_cast<float>(rng.NextGaussian())});
  }
  auto m = SparseMatrix::FromTriplets(40, 30, trips);
  Matrix x = Matrix::Randn(30, 8, &rng);
  EXPECT_TRUE(AllClose(m.Multiply(x), MatMul(m.ToDense(), x), 1e-4f, 1e-3f));
}

}  // namespace
}  // namespace turbo::la
