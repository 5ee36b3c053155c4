// Dense row-major float matrix and the kernels used by the autograd
// engine and the classical ML models.
//
// Deliberately simple: contiguous 64-byte-aligned vector storage,
// explicit shapes, bounds-checked accessors (TURBO_CHECK stays on in
// Release), and free-function kernels. No expression templates — the
// autograd layer is the composition mechanism.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/aligned_alloc.h"
#include "util/check.h"
#include "util/rng.h"

namespace turbo::la {

/// Matrix/SparseMatrix storage alignment: one cache line. Row STRIDES
/// are not padded, so only row 0 is guaranteed aligned — the kernels
/// use unaligned loads, and this alignment keeps AVX2's 32-byte loads
/// from splitting cache lines in the common case: row 0, and every row
/// whose width is a multiple of 16 floats. With 16-byte alignment the
/// dispatched 256x256 GEMM ran 11% slower (DESIGN.md §13).
inline constexpr std::size_t kMatrixAlignment = 64;

template <typename T>
using AlignedVector =
    std::vector<T, util::AlignedAllocator<T, kMatrixAlignment>>;

class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}
  Matrix(size_t rows, size_t cols, std::vector<float> data)
      : rows_(rows), cols_(cols), data_(data.begin(), data.end()) {
    TURBO_CHECK_EQ(data_.size(), rows_ * cols_);
  }

  /// Builds from nested initializer-style rows (test convenience).
  static Matrix FromRows(const std::vector<std::vector<float>>& rows);

  /// Gaussian init with the given stddev.
  static Matrix Randn(size_t rows, size_t cols, Rng* rng,
                      float stddev = 1.0f);

  /// Glorot/Xavier-uniform init: U(-a, a), a = sqrt(6/(fan_in+fan_out)).
  static Matrix Glorot(size_t rows, size_t cols, Rng* rng);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& at(size_t r, size_t c) {
    TURBO_CHECK_LT(r, rows_);
    TURBO_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }
  float at(size_t r, size_t c) const {
    TURBO_CHECK_LT(r, rows_);
    TURBO_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }
  /// Unchecked access for inner loops.
  float& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
  float operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  float* row(size_t r) { return data_.data() + r * cols_; }
  const float* row(size_t r) const { return data_.data() + r * cols_; }

  bool same_shape(const Matrix& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_;
  }

  void Fill(float v) { std::fill(data_.begin(), data_.end(), v); }
  void SetZero() { Fill(0.0f); }

  /// In-place axpy: this += alpha * other. Shapes must match.
  void Add(const Matrix& other, float alpha = 1.0f);
  /// In-place scale.
  void Scale(float alpha);

  /// Squared Frobenius norm.
  double SquaredNorm() const;
  /// Sum of all entries.
  double Sum() const;
  /// Max |entry|.
  float MaxAbs() const;

  std::string DebugString(int max_rows = 6, int max_cols = 8) const;

 private:
  size_t rows_, cols_;
  AlignedVector<float> data_;
};

// ---- kernels ----

/// C = A * B. Shapes: [m,k] x [k,n] -> [m,n]. Row-parallel on the shared
/// thread pool above a flop threshold; the per-element accumulation
/// order is independent of the thread count, so results are identical
/// across serial and parallel runs. MatMul and SparseMatrix::Multiply are
/// the scalar-tier instances of the drivers in kernel_dispatch.cc, the
/// same loops la::dispatch runs under KernelIsa::kScalar.
Matrix MatMul(const Matrix& a, const Matrix& b);
/// C = A^T * B. Shapes: [k,m] x [k,n] -> [m,n].
Matrix MatMulTransA(const Matrix& a, const Matrix& b);
/// C = A * B^T. Shapes: [m,k] x [n,k] -> [m,n]. Row-parallel like MatMul;
/// scalar only, since no inference forward calls it.
Matrix MatMulTransB(const Matrix& a, const Matrix& b);

/// Caps the threads dense/sparse kernels may use (benches and tests pin
/// this for reproducible scaling runs). <= 0 restores the hardware
/// default. Thread count never changes numerical results.
void SetKernelThreads(int threads);
int KernelThreads();

Matrix Transpose(const Matrix& a);

/// Elementwise map over a compile-time functor: the hot path used by the
/// autograd ops and the tape-free inference forward (the callable is
/// inlined; no std::function dispatch).
template <typename F>
Matrix MapT(const Matrix& a, F&& f) {
  Matrix out(a.rows(), a.cols());
  const float* in = a.data();
  float* o = out.data();
  for (size_t i = 0; i < a.size(); ++i) o[i] = f(in[i]);
  return out;
}

/// Elementwise binary op over a compile-time functor; shapes must match.
template <typename F>
Matrix ZipT(const Matrix& a, const Matrix& b, F&& f) {
  TURBO_CHECK(a.same_shape(b));
  Matrix out(a.rows(), a.cols());
  const float* pa = a.data();
  const float* pb = b.data();
  float* o = out.data();
  for (size_t i = 0; i < a.size(); ++i) o[i] = f(pa[i], pb[i]);
  return out;
}

/// Stateless elementwise functors shared by the autograd ops and the
/// tape-free inference forward. Using the same callable on both paths
/// keeps their results bit-identical (same instructions, same
/// fp-contraction decisions).
namespace kernels {
inline constexpr auto Relu = [](float x) { return x > 0.0f ? x : 0.0f; };
inline constexpr auto Tanh = [](float x) { return std::tanh(x); };
inline constexpr auto Sigmoid = [](float x) {
  return x >= 0.0f ? 1.0f / (1.0f + std::exp(-x))
                   : std::exp(x) / (1.0f + std::exp(x));
};
}  // namespace kernels

/// C[r,:] = a[r,:] + bias[0,:]; bias is [1, n].
Matrix AddRowBroadcast(const Matrix& a, const Matrix& bias);

/// C[r,c] = a[r,c] * s[r,0]; s is [m, 1] (per-row gate).
Matrix MulColBroadcast(const Matrix& a, const Matrix& s);

/// Concatenate along columns: [m,n1] ++ [m,n2] -> [m,n1+n2].
Matrix ConcatCols(const Matrix& a, const Matrix& b);

/// Row-wise softmax.
Matrix SoftmaxRows(const Matrix& a);

/// Per-row sums -> [m, 1].
Matrix RowSums(const Matrix& a);

/// Column c as an [m, 1] matrix.
Matrix Col(const Matrix& a, size_t c);

/// Columns [start, start+len) as an [m, len] matrix.
Matrix SliceCols(const Matrix& a, size_t start, size_t len);

/// Rows `rows` of `a`, in that order, as a [rows.size(), n] matrix.
Matrix GatherRows(const Matrix& a, const std::vector<uint32_t>& rows);

/// True if the shapes match and every element pair is equal, or finite
/// with |a-b| <= atol + rtol*|b|. NaN never passes.
bool AllClose(const Matrix& a, const Matrix& b, float atol = 1e-5f,
              float rtol = 1e-4f);

}  // namespace turbo::la
