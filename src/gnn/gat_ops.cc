#include "gnn/gat_ops.h"

#include <cmath>

namespace turbo::gnn {

using ag::Node;
using ag::Tensor;
using la::Matrix;

Tensor GatAggregate(const la::SparseMatrix& structure, const Tensor& h,
                    const Tensor& s, const Tensor& d, float leaky_slope) {
  const size_t n = structure.rows();
  TURBO_CHECK_EQ(structure.cols(), n);
  TURBO_CHECK_EQ(h->rows(), n);
  TURBO_CHECK_EQ(s->rows(), n);
  TURBO_CHECK_EQ(s->cols(), 1u);
  TURBO_CHECK_EQ(d->rows(), n);
  TURBO_CHECK_EQ(d->cols(), 1u);
  const size_t f = h->cols();

  // Forward: per-edge softmax attention. The normalized alphas and the
  // lrelu'(z) signs are kept for the backward.
  const auto& row_ptr = structure.row_ptr();
  const auto& col_idx = structure.col_idx();
  std::vector<float> alpha(structure.nnz(), 0.0f);
  std::vector<float> zsign(structure.nnz(), 0.0f);
  Matrix out(n, f);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t begin = row_ptr[i], end = row_ptr[i + 1];
    if (begin == end) continue;
    float mx = -std::numeric_limits<float>::infinity();
    for (uint32_t k = begin; k < end; ++k) {
      const float z = s->value(i, 0) + d->value(col_idx[k], 0);
      const float e = z > 0.0f ? z : leaky_slope * z;
      zsign[k] = z > 0.0f ? 1.0f : leaky_slope;
      alpha[k] = e;
      mx = std::max(mx, e);
    }
    float sum = 0.0f;
    for (uint32_t k = begin; k < end; ++k) {
      alpha[k] = std::exp(alpha[k] - mx);
      sum += alpha[k];
    }
    const float inv = 1.0f / sum;
    float* orow = out.row(i);
    for (uint32_t k = begin; k < end; ++k) {
      alpha[k] *= inv;
      const float* hrow = h->value.row(col_idx[k]);
      for (size_t c = 0; c < f; ++c) orow[c] += alpha[k] * hrow[c];
    }
  }

  la::SparseMatrix st = structure;  // keep structure alive in the closure
  return ag::MakeOp(
      "gat_aggregate", std::move(out), {h, s, d},
      [st, alpha, zsign, f](Node* node) {
        Node* hn = node->parents[0].get();
        Node* sn = node->parents[1].get();
        Node* dn = node->parents[2].get();
        const size_t n = st.rows();
        const auto& row_ptr = st.row_ptr();
        const auto& col_idx = st.col_idx();
        Matrix gh(n, f), gs(n, 1), gd(n, 1);
        std::vector<float> gdot;  // gout_i . h_j per edge of row i
        for (size_t i = 0; i < n; ++i) {
          const uint32_t begin = row_ptr[i], end = row_ptr[i + 1];
          if (begin == end) continue;
          const float* grow = node->grad.row(i);
          gdot.assign(end - begin, 0.0f);
          float weighted_sum = 0.0f;  // sum_k alpha_ik * g_ik
          for (uint32_t k = begin; k < end; ++k) {
            const float* hrow = hn->value.row(col_idx[k]);
            float dot = 0.0f;
            for (size_t c = 0; c < f; ++c) dot += grow[c] * hrow[c];
            gdot[k - begin] = dot;
            weighted_sum += alpha[k] * dot;
          }
          for (uint32_t k = begin; k < end; ++k) {
            const uint32_t j = col_idx[k];
            // Feature path: grad_h[j] += alpha_ij * gout_i.
            if (hn->requires_grad) {
              float* ghrow = gh.row(j);
              for (size_t c = 0; c < f; ++c) {
                ghrow[c] += alpha[k] * grow[c];
              }
            }
            // Attention path.
            const float de = alpha[k] * (gdot[k - begin] - weighted_sum);
            const float dz = de * zsign[k];
            gs(i, 0) += dz;
            gd(j, 0) += dz;
          }
        }
        if (hn->requires_grad) hn->AccumGrad(gh);
        if (sn->requires_grad) sn->AccumGrad(gs);
        if (dn->requires_grad) dn->AccumGrad(gd);
      });
}

}  // namespace turbo::gnn
