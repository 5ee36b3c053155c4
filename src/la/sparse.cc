#include "la/sparse.h"

#include <algorithm>

namespace turbo::la {

SparseMatrix SparseMatrix::FromTriplets(size_t rows, size_t cols,
                                        std::vector<Triplet> triplets) {
  for (const auto& t : triplets) {
    TURBO_CHECK_LT(t.row, rows);
    TURBO_CHECK_LT(t.col, cols);
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(rows + 1, 0);
  m.col_idx_.reserve(triplets.size());
  m.values_.reserve(triplets.size());
  size_t i = 0;
  for (size_t r = 0; r < rows; ++r) {
    m.row_ptr_[r] = static_cast<uint32_t>(m.col_idx_.size());
    while (i < triplets.size() && triplets[i].row == r) {
      uint32_t c = triplets[i].col;
      float v = triplets[i].value;
      ++i;
      // Merge duplicates.
      while (i < triplets.size() && triplets[i].row == r &&
             triplets[i].col == c) {
        v += triplets[i].value;
        ++i;
      }
      m.col_idx_.push_back(c);
      m.values_.push_back(v);
    }
  }
  m.row_ptr_[rows] = static_cast<uint32_t>(m.col_idx_.size());
  return m;
}

Matrix SparseMatrix::MultiplyTransposed(const Matrix& x) const {
  TURBO_CHECK_EQ(rows_, x.rows());
  Matrix y(cols_, x.cols());
  const size_t n = x.cols();
  for (size_t r = 0; r < rows_; ++r) {
    const float* xrow = x.row(r);
    for (uint32_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const float v = values_[k];
      float* yrow = y.row(col_idx_[k]);
      for (size_t j = 0; j < n; ++j) yrow[j] += v * xrow[j];
    }
  }
  return y;
}

Matrix SparseMatrix::RowSums() const {
  Matrix out(rows_, 1);
  for (size_t r = 0; r < rows_; ++r) {
    float s = 0.0f;
    for (uint32_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) s += values_[k];
    out(r, 0) = s;
  }
  return out;
}

SparseMatrix SparseMatrix::RowNormalized() const {
  SparseMatrix out = *this;
  for (size_t r = 0; r < rows_; ++r) {
    float s = 0.0f;
    for (uint32_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) s += values_[k];
    if (s <= 0.0f) continue;
    const float inv = 1.0f / s;
    for (uint32_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      out.values_[k] *= inv;
    }
  }
  return out;
}

SparseMatrix SparseMatrix::SelectRows(const std::vector<uint32_t>& rows,
                                      const std::vector<int32_t>& col_map,
                                      size_t cols) const {
  TURBO_CHECK_EQ(col_map.size(), cols_);
  SparseMatrix m;
  m.rows_ = rows.size();
  m.cols_ = cols;
  m.row_ptr_.reserve(rows.size() + 1);
  m.row_ptr_.push_back(0);
  for (uint32_t r : rows) {
    TURBO_CHECK_LT(r, rows_);
    for (uint32_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const int32_t c = col_map[col_idx_[k]];
      TURBO_CHECK(c >= 0 && static_cast<size_t>(c) < cols);
      m.col_idx_.push_back(static_cast<uint32_t>(c));
      m.values_.push_back(values_[k]);
    }
    m.row_ptr_.push_back(static_cast<uint32_t>(m.col_idx_.size()));
  }
  return m;
}

Matrix SparseMatrix::ToDense() const {
  Matrix d(rows_, cols_);
  for (size_t r = 0; r < rows_; ++r) {
    for (uint32_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      d(r, col_idx_[k]) += values_[k];
    }
  }
  return d;
}

}  // namespace turbo::la
