#include "core/hag.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "la/kernel_dispatch.h"

namespace turbo::core {

using ag::Tensor;

Hag::SaoLayer Hag::MakeSaoLayer(int d_in, int d_out, Rng* rng) const {
  const int t = cfg_.attention_dim;
  return SaoLayer{
      ag::Param(la::Matrix::Glorot(d_in, d_out, rng), "sao_wls"),
      ag::Param(la::Matrix::Glorot(d_in, d_out, rng), "sao_wln"),
      ag::Param(la::Matrix::Glorot(d_in, t, rng), "sao_ws"),
      ag::Param(la::Matrix::Glorot(d_in, t, rng), "sao_wn"),
      ag::Param(la::Matrix::Glorot(2 * t, 1, rng), "sao_p"),
  };
}

void Hag::Init(int in_dim) {
  Rng rng(cfg_.seed);
  chains_.clear();
  cfo_.clear();
  const int num_chains =
      (cfg_.use_cfo && !cfg_.share_type_weights) ? kNumEdgeTypes : 1;
  for (int c = 0; c < num_chains; ++c) {
    std::vector<SaoLayer> chain;
    int d = in_dim;
    for (int h : cfg_.hidden) {
      chain.push_back(MakeSaoLayer(d, h, &rng));
      d = h;
    }
    chains_.push_back(std::move(chain));
  }
  const int d_k = cfg_.hidden.back();
  const int d_m = d_k;  // fused dimension matches the type embedding
  if (cfg_.use_cfo) {
    for (int r = 0; r < kNumEdgeTypes; ++r) {
      cfo_.push_back(CfoType{
          ag::Param(la::Matrix::Glorot(d_k, cfg_.attention_dim, &rng),
                    "cfo_w"),
          ag::Param(la::Matrix::Glorot(cfg_.attention_dim, 1, &rng),
                    "cfo_v"),
          ag::Param(la::Matrix::Glorot(d_k, d_m, &rng), "cfo_m"),
      });
    }
  }
  head_.Init(d_m, cfg_.mlp_hidden, &rng);
}

Tensor Hag::ApplySao(const SaoLayer& layer, const Tensor& h,
                     const la::SparseMatrix& mean_adj) const {
  // Eq. 6: weighted-mean neighborhood representation. The adjacency is
  // row-normalized over the (already degree-normalized) BN edge weights.
  Tensor hn = ag::SpMM(mean_adj, h);
  Tensor self_term = ag::MatMul(h, layer.w_self);
  Tensor neigh_term = ag::MatMul(hn, layer.w_neigh);
  if (!cfg_.use_sao) {
    // SAO(-): plain skip-connection aggregation (Eq. 4).
    return ag::Relu(ag::Add(self_term, neigh_term));
  }
  // Eq. 7–9: attention gate between self and neighborhood.
  Tensor hs = ag::MatMul(h, layer.w_s);
  Tensor hnn = ag::MatMul(hn, layer.w_n);
  Tensor a_self = ag::MatMul(ag::Tanh(ag::ConcatCols(hs, hs)), layer.p);
  Tensor a_neigh = ag::MatMul(ag::Tanh(ag::ConcatCols(hnn, hs)), layer.p);
  Tensor alphas = ag::SoftmaxRows(ag::ConcatCols(a_self, a_neigh));
  // Eq. 5.
  return ag::Relu(
      ag::Add(ag::MulColBroadcast(self_term, ag::SliceCols(alphas, 0, 1)),
              ag::MulColBroadcast(neigh_term, ag::SliceCols(alphas, 1, 1))));
}

la::Matrix Hag::ApplySaoInference(const SaoLayer& layer,
                                  const la::Matrix& h_self,
                                  const la::Matrix& h,
                                  const la::SparseMatrix& mean_adj) const {
  if (!cfg_.use_sao) {
    // SAO(-), inference-only reassociation: ReLU(H Wls + (Ā H) Wln)
    // computed as ReLU(Ā (H Wln) + H Wls) so the SpMM runs on the
    // transformed (narrow) features and fuses with the self-term addend
    // and the activation. Equal in exact arithmetic; float difference
    // is bounded by the inference-equivalence test.
    la::Matrix self_term = la::dispatch::MatMul(h_self, layer.w_self->value);
    return la::dispatch::SpmmBiasAct(
        mean_adj, la::dispatch::MatMul(h, layer.w_neigh->value), &self_term,
        la::Act::kRelu);
  }
  // Full SAO needs Ā H itself for the gate (Eq. 7–9), so the original
  // structure stays; the products run on the dispatched kernels. tanh is
  // elementwise, so tanh(hs) is taken once for both concatenations.
  la::Matrix hn = la::dispatch::Spmm(mean_adj, h);
  la::Matrix self_term = la::dispatch::MatMul(h_self, layer.w_self->value);
  la::Matrix neigh_term = la::dispatch::MatMul(hn, layer.w_neigh->value);
  la::Matrix ths = la::dispatch::MapAct(
      la::dispatch::MatMul(h_self, layer.w_s->value), la::Act::kTanh);
  la::Matrix thnn = la::dispatch::MapAct(
      la::dispatch::MatMul(hn, layer.w_n->value), la::Act::kTanh);
  la::Matrix a_self =
      la::dispatch::MatMul(la::ConcatCols(ths, ths), layer.p->value);
  la::Matrix a_neigh =
      la::dispatch::MatMul(la::ConcatCols(thnn, ths), layer.p->value);
  la::Matrix alphas = la::SoftmaxRows(la::ConcatCols(a_self, a_neigh));
  la::Matrix z =
      la::MulColBroadcast(self_term, la::SliceCols(alphas, 0, 1));
  z.Add(la::MulColBroadcast(neigh_term, la::SliceCols(alphas, 1, 1)));
  return la::dispatch::MapAct(z, la::Act::kRelu);
}

namespace {

/// One chain's receptive field over `adj`: rows[L] = [0, num_rows) and
/// rows[k-1] = rows[k] plus their neighbours in `adj`, each ascending.
/// Layer k reads rows[k-1] to compute rows[k].
std::vector<std::vector<uint32_t>> ChainRows(const la::SparseMatrix& adj,
                                             size_t num_rows,
                                             size_t num_layers) {
  const size_t n = adj.rows();
  TURBO_CHECK_LE(num_rows, n);
  std::vector<std::vector<uint32_t>> rows(num_layers + 1);
  std::vector<char> in_field(n, 0);
  for (uint32_t i = 0; i < num_rows; ++i) {
    in_field[i] = 1;
    rows[num_layers].push_back(i);
  }
  for (size_t k = num_layers; k > 0; --k) {
    for (uint32_t r : rows[k]) {
      for (uint32_t e = adj.row_ptr()[r]; e < adj.row_ptr()[r + 1]; ++e) {
        in_field[adj.col_idx()[e]] = 1;
      }
    }
    for (uint32_t i = 0; i < n; ++i) {
      if (in_field[i]) rows[k - 1].push_back(i);
    }
  }
  return rows;
}

}  // namespace

std::vector<uint32_t> Hag::InputRows(const gnn::GraphBatch& batch) const {
  TURBO_CHECK(!chains_.empty());
  const size_t n = ChainAdjacency(batch, 0).rows();
  std::vector<char> read(n, 0);
  for (int c = 0; c < num_chains(); ++c) {
    const auto rows = ChainRows(ChainAdjacency(batch, c), batch.num_targets,
                                ChainLayers(c).size());
    for (uint32_t r : rows[0]) read[r] = 1;
  }
  std::vector<uint32_t> out;
  for (uint32_t i = 0; i < n; ++i) {
    if (read[i]) out.push_back(i);
  }
  return out;
}

la::Matrix Hag::EmbedRowsInference(const gnn::GraphBatch& batch,
                                   size_t num_rows) const {
  TURBO_CHECK(!chains_.empty());
  // Each chain runs layer k on its rows[k] only. The adjacency keeps
  // those rows, with columns renumbered into rows[k-1]; the renumbering is
  // monotone, so every row keeps its entries in order.
  std::vector<la::Matrix> type_embeddings;
  type_embeddings.reserve(num_chains());
  for (int c = 0; c < num_chains(); ++c) {
    const la::SparseMatrix& adj = ChainAdjacency(batch, c);
    const std::vector<SaoLayer>& chain = ChainLayers(c);
    const auto rows = ChainRows(adj, num_rows, chain.size());
    la::Matrix h = la::GatherRows(batch.features, rows[0]);
    std::vector<int32_t> pos(adj.rows());
    std::vector<uint32_t> self;
    for (size_t k = 1; k <= chain.size(); ++k) {
      std::fill(pos.begin(), pos.end(), -1);
      for (size_t i = 0; i < rows[k - 1].size(); ++i) {
        pos[rows[k - 1][i]] = static_cast<int32_t>(i);
      }
      self.resize(rows[k].size());
      for (size_t i = 0; i < rows[k].size(); ++i) {
        self[i] = static_cast<uint32_t>(pos[rows[k][i]]);
      }
      h = ApplySaoInference(chain[k - 1], la::GatherRows(h, self), h,
                            adj.SelectRows(rows[k], pos, rows[k - 1].size()));
    }
    type_embeddings.push_back(std::move(h));
  }
  if (!cfg_.use_cfo) return std::move(type_embeddings[0]);

  la::Matrix scores;
  for (int r = 0; r < kNumEdgeTypes; ++r) {
    la::Matrix sr = la::dispatch::MatMul(
        la::dispatch::MapAct(
            la::dispatch::MatMul(type_embeddings[r], cfo_[r].w_attn->value),
            la::Act::kTanh),
        cfo_[r].v_attn->value);
    scores = (r == 0) ? std::move(sr) : la::ConcatCols(scores, sr);
  }
  la::Matrix alphas = la::SoftmaxRows(scores);

  la::Matrix fused;
  for (int r = 0; r < kNumEdgeTypes; ++r) {
    la::Matrix term = la::MulColBroadcast(
        la::dispatch::MatMul(type_embeddings[r], cfo_[r].m->value),
        la::SliceCols(alphas, r, 1));
    if (r == 0) {
      fused = std::move(term);
    } else {
      fused.Add(term);
    }
  }
  return fused;
}

la::Matrix Hag::EmbedInference(const gnn::GraphBatch& batch) const {
  return EmbedRowsInference(batch, batch.num_nodes());
}

la::Matrix Hag::LogitsInference(const gnn::GraphBatch& batch) const {
  return head_.ForwardInference(EmbedInference(batch));
}

la::Matrix Hag::TargetLogitsInference(const gnn::GraphBatch& batch) const {
  return head_.ForwardInference(EmbedRowsInference(batch, batch.num_targets));
}

Tensor Hag::Embed(const gnn::GraphBatch& batch, bool training, Rng* rng) const {
  TURBO_CHECK(!chains_.empty());
  Tensor x = InputTensor(batch);

  // Eq. 10: SAO run independently on every homogeneous subgraph (with
  // shared or type-specific transforms per config); CFO(-) runs one
  // chain on the union graph.
  std::vector<Tensor> type_embeddings;
  type_embeddings.reserve(num_chains());
  for (int c = 0; c < num_chains(); ++c) {
    Tensor h = x;
    for (const auto& layer : ChainLayers(c)) {
      h = ApplySao(layer, h, ChainAdjacency(batch, c));
      h = ag::Dropout(h, cfg_.dropout, training, rng);
    }
    type_embeddings.push_back(h);
  }
  if (!cfg_.use_cfo) return type_embeddings[0];

  // Eq. 12: node-wise attention over types.
  std::vector<Tensor> scores;
  scores.reserve(kNumEdgeTypes);
  for (int r = 0; r < kNumEdgeTypes; ++r) {
    scores.push_back(ag::MatMul(
        ag::Tanh(ag::MatMul(type_embeddings[r], cfo_[r].w_attn)),
        cfo_[r].v_attn));
  }
  Tensor alphas = ag::SoftmaxRows(ag::ConcatColsN(scores));

  // Eq. 13–15: macro-level transform M_r, micro-level mixing by alpha.
  Tensor fused;
  for (int r = 0; r < kNumEdgeTypes; ++r) {
    Tensor term = ag::MulColBroadcast(
        ag::MatMul(type_embeddings[r], cfo_[r].m),
        ag::SliceCols(alphas, r, 1));
    fused = (r == 0) ? term : ag::Add(fused, term);
  }
  return fused;
}

std::vector<Tensor> Hag::Params() const {
  std::vector<Tensor> p;
  for (const auto& chain : chains_) {
    for (const auto& l : chain) {
      p.push_back(l.w_self);
      p.push_back(l.w_neigh);
      if (cfg_.use_sao) {
        p.push_back(l.w_s);
        p.push_back(l.w_n);
        p.push_back(l.p);
      }
    }
  }
  for (const auto& c : cfo_) {
    p.push_back(c.w_attn);
    p.push_back(c.v_attn);
    p.push_back(c.m);
  }
  for (const auto& t : head_.Params()) p.push_back(t);
  return p;
}

std::string Hag::name() const {
  if (cfg_.use_sao && cfg_.use_cfo) return "HAG";
  if (!cfg_.use_sao && cfg_.use_cfo) return "SAO(-)";
  if (cfg_.use_sao && !cfg_.use_cfo) return "CFO(-)";
  return "Both(-)";
}

}  // namespace turbo::core
