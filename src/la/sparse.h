// CSR sparse matrix used for graph adjacency in GNN message passing.
//
// Structure is immutable after construction (built once per GraphBatch);
// only SpMM-style products against dense matrices are needed, plus the
// transposed product for the backward pass.
#pragma once

#include <cstdint>
#include <vector>

#include "la/matrix.h"

namespace turbo::la {

struct Triplet {
  uint32_t row;
  uint32_t col;
  float value;
};

class SparseMatrix {
 public:
  SparseMatrix() : rows_(0), cols_(0) {}

  /// Builds CSR from (row, col, value) triplets; duplicate (row, col)
  /// entries are summed.
  static SparseMatrix FromTriplets(size_t rows, size_t cols,
                                   std::vector<Triplet> triplets);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t nnz() const { return col_idx_.size(); }

  const AlignedVector<uint32_t>& row_ptr() const { return row_ptr_; }
  const AlignedVector<uint32_t>& col_idx() const { return col_idx_; }
  const AlignedVector<float>& values() const { return values_; }

  /// Y = this * X. Shapes: [m,k] x [k,n] -> [m,n]. Row-parallel; the
  /// scalar-tier instance of the SpMM driver in kernel_dispatch.cc.
  Matrix Multiply(const Matrix& x) const;

  /// Y = this^T * X. Shapes: [m,k]^T x [m,n] -> [k,n].
  /// Backward of Multiply w.r.t. X.
  Matrix MultiplyTransposed(const Matrix& x) const;

  /// Per-row sum of values (weighted out-degree) -> [m,1] dense.
  Matrix RowSums() const;

  /// Returns a copy where every row is scaled to sum to 1 (rows with zero
  /// sum stay zero). Used for mean-aggregation adjacency.
  SparseMatrix RowNormalized() const;

  /// Rows `rows` of this matrix, in that order, with each column c
  /// renumbered to col_map[c] in a matrix of `cols` columns. Values and
  /// each row's entry order are copied unchanged, so a product of the
  /// result with the matching rows of a dense operand yields the same
  /// bits per row as the product of the whole. Every column that a kept
  /// row references must map into [0, cols).
  SparseMatrix SelectRows(const std::vector<uint32_t>& rows,
                          const std::vector<int32_t>& col_map,
                          size_t cols) const;

  Matrix ToDense() const;

 private:
  size_t rows_, cols_;
  AlignedVector<uint32_t> row_ptr_;
  AlignedVector<uint32_t> col_idx_;
  AlignedVector<float> values_;
};

}  // namespace turbo::la
