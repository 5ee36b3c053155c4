// Fused edge-softmax attention aggregation for GAT.
//
// Given per-node source scores s [n,1], destination scores d [n,1] and
// transformed features h [n,f], computes for every node i over its
// structural neighborhood N(i) (self-loops included in `structure`):
//   e_ij   = LeakyReLU(s_i + d_j)
//   alpha  = softmax over j of e_ij
//   out_i  = sum_j alpha_ij * h_j
// with a hand-derived backward validated by gradcheck tests.
#pragma once

#include "autograd/tensor.h"
#include "la/sparse.h"

namespace turbo::gnn {

ag::Tensor GatAggregate(const la::SparseMatrix& structure,
                        const ag::Tensor& h, const ag::Tensor& s,
                        const ag::Tensor& d, float leaky_slope = 0.2f);

}  // namespace turbo::gnn
