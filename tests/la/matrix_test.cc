#include "la/matrix.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include <gtest/gtest.h>

namespace turbo::la {
namespace {

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5f);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_FLOAT_EQ(m.at(1, 2), 1.5f);
  m.at(0, 1) = 7.0f;
  EXPECT_FLOAT_EQ(m(0, 1), 7.0f);
}

TEST(MatrixTest, StorageIs64ByteAligned) {
  // The SIMD kernels assume row 0 starts on a cache-line boundary.
  for (size_t rows : {1ul, 3ul, 17ul}) {
    Matrix m(rows, 5, 1.0f);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(m.data()) % kMatrixAlignment, 0u);
  }
  Matrix from_rows = Matrix::FromRows({{1, 2, 3}});
  EXPECT_EQ(
      reinterpret_cast<uintptr_t>(from_rows.data()) % kMatrixAlignment, 0u);
}

bool Aligned(const void* p) {
  return reinterpret_cast<uintptr_t>(p) % kMatrixAlignment == 0;
}

// The allocator carves the boundary out of a plain malloc block, so
// check sizes on both sides of glibc's mmap threshold (128 KiB by
// default): 300,000 floats come from mmap, the others from the heap.
TEST(MatrixTest, StorageStaysAlignedAcrossSizesAndOperations) {
  for (size_t n : {1ul, 17ul, 4096ul, 300000ul}) {
    SCOPED_TRACE(n);
    Matrix m(1, n, 1.0f);
    EXPECT_TRUE(Aligned(m.data()));
    Matrix copy(m);
    EXPECT_TRUE(Aligned(copy.data()));
    Matrix moved(std::move(copy));
    EXPECT_TRUE(Aligned(moved.data()));
    Matrix assigned(3, 3);
    assigned = m;
    EXPECT_TRUE(Aligned(assigned.data()));
    Matrix move_assigned;
    move_assigned = std::move(assigned);
    EXPECT_TRUE(Aligned(move_assigned.data()));
    EXPECT_EQ(move_assigned.size(), n);
    EXPECT_FLOAT_EQ(move_assigned.data()[n - 1], 1.0f);

    AlignedVector<float> v(n, 2.0f);
    EXPECT_TRUE(Aligned(v.data()));
    v.resize(2 * n + 1);
    EXPECT_TRUE(Aligned(v.data()));
    v.assign(n / 2 + 1, 3.0f);
    EXPECT_TRUE(Aligned(v.data()));
    v.shrink_to_fit();
    EXPECT_TRUE(Aligned(v.data()));
  }
}

#ifdef TURBO_ALIGNED_ALLOC_ASAN
// Under AddressSanitizer the allocator keeps the aligned operator new,
// whose block ends exactly at the last element, so a one-element write
// past a Matrix is reported instead of landing in slack bytes.
TEST(MatrixDeathTest, AsanReportsWriteOnePastTheEnd) {
  EXPECT_DEATH(
      {
        Matrix m(3, 5);
        float* volatile end = m.data() + m.size();
        *end = 1.0f;
      },
      "heap-buffer-overflow");
}
#endif

TEST(MatrixTest, FromRows) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_FLOAT_EQ(m(2, 1), 6.0f);
}

TEST(MatrixDeathTest, OutOfBoundsAtAborts) {
  Matrix m(2, 2);
  EXPECT_DEATH(m.at(2, 0), "CHECK failed");
  EXPECT_DEATH(m.at(0, 2), "CHECK failed");
}

TEST(MatrixTest, AddAndScale) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{10, 20}, {30, 40}});
  a.Add(b, 0.5f);
  EXPECT_FLOAT_EQ(a(0, 0), 6.0f);
  EXPECT_FLOAT_EQ(a(1, 1), 24.0f);
  a.Scale(2.0f);
  EXPECT_FLOAT_EQ(a(0, 1), 24.0f);
}

TEST(MatrixTest, Reductions) {
  Matrix a = Matrix::FromRows({{1, -2}, {3, -4}});
  EXPECT_DOUBLE_EQ(a.Sum(), -2.0);
  EXPECT_DOUBLE_EQ(a.SquaredNorm(), 1 + 4 + 9 + 16);
  EXPECT_FLOAT_EQ(a.MaxAbs(), 4.0f);
}

TEST(MatMulTest, KnownProduct) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  Matrix c = MatMul(a, b);
  EXPECT_TRUE(AllClose(c, Matrix::FromRows({{19, 22}, {43, 50}})));
}

TEST(MatMulTest, IdentityIsNeutral) {
  Rng rng(1);
  Matrix a = Matrix::Randn(4, 4, &rng);
  Matrix id(4, 4);
  for (int i = 0; i < 4; ++i) id(i, i) = 1.0f;
  EXPECT_TRUE(AllClose(MatMul(a, id), a));
  EXPECT_TRUE(AllClose(MatMul(id, a), a));
}

TEST(MatMulTest, TransAVariantsMatchExplicitTranspose) {
  Rng rng(2);
  Matrix a = Matrix::Randn(5, 3, &rng);
  Matrix b = Matrix::Randn(5, 4, &rng);
  EXPECT_TRUE(AllClose(MatMulTransA(a, b), MatMul(Transpose(a), b)));
}

TEST(MatMulTest, TransBVariantsMatchExplicitTranspose) {
  Rng rng(3);
  Matrix a = Matrix::Randn(5, 3, &rng);
  Matrix b = Matrix::Randn(4, 3, &rng);
  EXPECT_TRUE(AllClose(MatMulTransB(a, b), MatMul(a, Transpose(b))));
}

TEST(MatMulDeathTest, ShapeMismatchAborts) {
  Matrix a(2, 3), b(2, 3);
  EXPECT_DEATH(MatMul(a, b), "CHECK failed");
}

TEST(TransposeTest, DoubleTransposeIsIdentity) {
  Rng rng(4);
  Matrix a = Matrix::Randn(3, 7, &rng);
  EXPECT_TRUE(AllClose(Transpose(Transpose(a)), a));
}

TEST(MapZipTest, ElementwiseOps) {
  Matrix a = Matrix::FromRows({{1, -2}, {-3, 4}});
  Matrix r = MapT(a, [](float x) { return x * x; });
  EXPECT_FLOAT_EQ(r(1, 0), 9.0f);
  Matrix z = ZipT(a, r, [](float x, float y) { return x + y; });
  EXPECT_FLOAT_EQ(z(0, 1), 2.0f);
}

TEST(BroadcastTest, AddRowBroadcast) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix bias = Matrix::FromRows({{10, 20}});
  Matrix r = AddRowBroadcast(a, bias);
  EXPECT_TRUE(AllClose(r, Matrix::FromRows({{11, 22}, {13, 24}})));
}

TEST(BroadcastTest, MulColBroadcast) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix gate = Matrix::FromRows({{2}, {-1}});
  Matrix r = MulColBroadcast(a, gate);
  EXPECT_TRUE(AllClose(r, Matrix::FromRows({{2, 4}, {-3, -4}})));
}

TEST(ConcatColsTest, ShapesAndValues) {
  Matrix a = Matrix::FromRows({{1}, {2}});
  Matrix b = Matrix::FromRows({{3, 4}, {5, 6}});
  Matrix c = ConcatCols(a, b);
  EXPECT_EQ(c.cols(), 3u);
  EXPECT_FLOAT_EQ(c(1, 0), 2.0f);
  EXPECT_FLOAT_EQ(c(1, 2), 6.0f);
}

TEST(SoftmaxRowsTest, RowsSumToOne) {
  Rng rng(5);
  Matrix a = Matrix::Randn(6, 5, &rng, 3.0f);
  Matrix s = SoftmaxRows(a);
  for (size_t r = 0; r < s.rows(); ++r) {
    float sum = 0.0f;
    for (size_t c = 0; c < s.cols(); ++c) {
      EXPECT_GT(s(r, c), 0.0f);
      sum += s(r, c);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(SoftmaxRowsTest, StableForLargeLogits) {
  Matrix a = Matrix::FromRows({{1000.0f, 1000.0f}});
  Matrix s = SoftmaxRows(a);
  EXPECT_NEAR(s(0, 0), 0.5f, 1e-6f);
  EXPECT_FALSE(std::isnan(s(0, 1)));
}

TEST(SoftmaxRowsTest, ShiftInvariant) {
  Matrix a = Matrix::FromRows({{1, 2, 3}});
  Matrix b = Matrix::FromRows({{101, 102, 103}});
  EXPECT_TRUE(AllClose(SoftmaxRows(a), SoftmaxRows(b)));
}

TEST(RowSumsColTest, Basics) {
  Matrix a = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  Matrix rs = RowSums(a);
  EXPECT_EQ(rs.cols(), 1u);
  EXPECT_FLOAT_EQ(rs(0, 0), 6.0f);
  EXPECT_FLOAT_EQ(rs(1, 0), 15.0f);
  Matrix c1 = Col(a, 1);
  EXPECT_FLOAT_EQ(c1(1, 0), 5.0f);
}

TEST(GlorotTest, BoundsRespectFanInOut) {
  Rng rng(6);
  Matrix m = Matrix::Glorot(20, 30, &rng);
  float a = std::sqrt(6.0f / 50.0f);
  EXPECT_LE(m.MaxAbs(), a);
  EXPECT_GT(m.MaxAbs(), 0.0f);
}

TEST(AllCloseTest, DetectsDifference) {
  Matrix a(2, 2, 1.0f), b(2, 2, 1.0f);
  EXPECT_TRUE(AllClose(a, b));
  b(0, 0) = 1.1f;
  EXPECT_FALSE(AllClose(a, b));
  EXPECT_FALSE(AllClose(a, Matrix(2, 3, 1.0f)));
  // NaN and a lone infinity never pass the tolerance.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const Matrix one(1, 1, 1.0f);
  EXPECT_FALSE(AllClose(Matrix(1, 1, nan), one));
  EXPECT_FALSE(AllClose(one, Matrix(1, 1, nan)));
  EXPECT_FALSE(AllClose(one, Matrix(1, 1, inf)));
  EXPECT_TRUE(AllClose(Matrix(1, 1, -inf), Matrix(1, 1, -inf)));
}

}  // namespace
}  // namespace turbo::la
