#include "la/matrix.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace turbo::la {

Matrix Matrix::FromRows(const std::vector<std::vector<float>>& rows) {
  TURBO_CHECK(!rows.empty());
  Matrix m(rows.size(), rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r) {
    TURBO_CHECK_EQ(rows[r].size(), m.cols());
    std::copy(rows[r].begin(), rows[r].end(), m.row(r));
  }
  return m;
}

Matrix Matrix::Randn(size_t rows, size_t cols, Rng* rng, float stddev) {
  Matrix m(rows, cols);
  for (auto& v : m.data_) v = static_cast<float>(rng->NextGaussian() * stddev);
  return m;
}

Matrix Matrix::Glorot(size_t rows, size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  float a = std::sqrt(6.0f / static_cast<float>(rows + cols));
  for (auto& v : m.data_) v = static_cast<float>(rng->NextDouble(-a, a));
  return m;
}

void Matrix::Add(const Matrix& other, float alpha) {
  TURBO_CHECK(same_shape(other));
  const float* o = other.data();
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += alpha * o[i];
}

void Matrix::Scale(float alpha) {
  for (auto& v : data_) v *= alpha;
}

double Matrix::SquaredNorm() const {
  double s = 0.0;
  for (float v : data_) s += static_cast<double>(v) * v;
  return s;
}

double Matrix::Sum() const {
  double s = 0.0;
  for (float v : data_) s += v;
  return s;
}

float Matrix::MaxAbs() const {
  float m = 0.0f;
  for (float v : data_) m = std::max(m, std::abs(v));
  return m;
}

std::string Matrix::DebugString(int max_rows, int max_cols) const {
  std::ostringstream oss;
  oss << "Matrix(" << rows_ << "x" << cols_ << ")[\n";
  for (size_t r = 0; r < rows_ && r < static_cast<size_t>(max_rows); ++r) {
    oss << "  ";
    for (size_t c = 0; c < cols_ && c < static_cast<size_t>(max_cols); ++c) {
      oss << (*this)(r, c) << " ";
    }
    if (cols_ > static_cast<size_t>(max_cols)) oss << "...";
    oss << "\n";
  }
  if (rows_ > static_cast<size_t>(max_rows)) oss << "  ...\n";
  oss << "]";
  return oss.str();
}

Matrix MatMulTransA(const Matrix& a, const Matrix& b) {
  TURBO_CHECK_EQ(a.rows(), b.rows());
  Matrix c(a.cols(), b.cols());
  const size_t k = a.rows(), m = a.cols(), n = b.cols();
  for (size_t p = 0; p < k; ++p) {
    const float* arow = a.row(p);
    const float* brow = b.row(p);
    for (size_t i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = c.row(i);
      for (size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Matrix Transpose(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) t(c, r) = a(r, c);
  }
  return t;
}

Matrix AddRowBroadcast(const Matrix& a, const Matrix& bias) {
  TURBO_CHECK_EQ(bias.rows(), 1u);
  TURBO_CHECK_EQ(bias.cols(), a.cols());
  Matrix out = a;
  for (size_t r = 0; r < a.rows(); ++r) {
    float* orow = out.row(r);
    const float* brow = bias.row(0);
    for (size_t c = 0; c < a.cols(); ++c) orow[c] += brow[c];
  }
  return out;
}

Matrix MulColBroadcast(const Matrix& a, const Matrix& s) {
  TURBO_CHECK_EQ(s.cols(), 1u);
  TURBO_CHECK_EQ(s.rows(), a.rows());
  Matrix out(a.rows(), a.cols());
  for (size_t r = 0; r < a.rows(); ++r) {
    const float g = s(r, 0);
    const float* arow = a.row(r);
    float* orow = out.row(r);
    for (size_t c = 0; c < a.cols(); ++c) orow[c] = arow[c] * g;
  }
  return out;
}

Matrix ConcatCols(const Matrix& a, const Matrix& b) {
  TURBO_CHECK_EQ(a.rows(), b.rows());
  Matrix out(a.rows(), a.cols() + b.cols());
  for (size_t r = 0; r < a.rows(); ++r) {
    std::copy(a.row(r), a.row(r) + a.cols(), out.row(r));
    std::copy(b.row(r), b.row(r) + b.cols(), out.row(r) + a.cols());
  }
  return out;
}

Matrix SoftmaxRows(const Matrix& a) {
  Matrix out(a.rows(), a.cols());
  for (size_t r = 0; r < a.rows(); ++r) {
    const float* in = a.row(r);
    float* o = out.row(r);
    float mx = in[0];
    for (size_t c = 1; c < a.cols(); ++c) mx = std::max(mx, in[c]);
    float sum = 0.0f;
    for (size_t c = 0; c < a.cols(); ++c) {
      o[c] = std::exp(in[c] - mx);
      sum += o[c];
    }
    const float inv = 1.0f / sum;
    for (size_t c = 0; c < a.cols(); ++c) o[c] *= inv;
  }
  return out;
}

Matrix RowSums(const Matrix& a) {
  Matrix out(a.rows(), 1);
  for (size_t r = 0; r < a.rows(); ++r) {
    float s = 0.0f;
    const float* in = a.row(r);
    for (size_t c = 0; c < a.cols(); ++c) s += in[c];
    out(r, 0) = s;
  }
  return out;
}

Matrix Col(const Matrix& a, size_t c) {
  TURBO_CHECK_LT(c, a.cols());
  Matrix out(a.rows(), 1);
  for (size_t r = 0; r < a.rows(); ++r) out(r, 0) = a(r, c);
  return out;
}

Matrix SliceCols(const Matrix& a, size_t start, size_t len) {
  TURBO_CHECK_LE(start + len, a.cols());
  Matrix out(a.rows(), len);
  for (size_t r = 0; r < a.rows(); ++r) {
    const float* in = a.row(r) + start;
    std::copy(in, in + len, out.row(r));
  }
  return out;
}

Matrix GatherRows(const Matrix& a, const std::vector<uint32_t>& rows) {
  Matrix out(rows.size(), a.cols());
  for (size_t i = 0; i < rows.size(); ++i) {
    TURBO_CHECK_LT(rows[i], a.rows());
    std::copy(a.row(rows[i]), a.row(rows[i]) + a.cols(), out.row(i));
  }
  return out;
}

bool AllClose(const Matrix& a, const Matrix& b, float atol, float rtol) {
  if (!a.same_shape(b)) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const float x = a.data()[i], y = b.data()[i];
    // Equal values pass (equal infinities included); anything else must
    // be finite and within tolerance, so NaN and a lone infinity fail.
    if (x == y) continue;
    if (!(std::isfinite(x) && std::isfinite(y) &&
          std::abs(x - y) <= atol + rtol * std::abs(y))) {
      return false;
    }
  }
  return true;
}

}  // namespace turbo::la
