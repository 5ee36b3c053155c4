#include "core/hag.h"

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
                                  const la::Matrix& h,
                                  const la::SparseMatrix& mean_adj) const {
  if (!cfg_.use_sao) {
    // SAO(-), inference-only reassociation: ReLU(H Wls + (Ā H) Wln)
    // computed as ReLU(Ā (H Wln) + H Wls) so the SpMM runs on the
    // transformed (narrow) features and fuses with the self-term addend
    // and the activation. Equal in exact arithmetic; float difference
    // is bounded by the inference-equivalence test.
    la::Matrix self_term = la::dispatch::MatMul(h, layer.w_self->value);
    return la::dispatch::SpmmBiasAct(
        mean_adj, la::dispatch::MatMul(h, layer.w_neigh->value), &self_term,
        la::Act::kRelu);
  }
  // Full SAO needs Ā H itself for the gate (Eq. 7–9), so the original
  // structure stays; the products run on the dispatched kernels.
  la::Matrix hn = la::dispatch::Spmm(mean_adj, h);
  la::Matrix self_term = la::dispatch::MatMul(h, layer.w_self->value);
  la::Matrix neigh_term = la::dispatch::MatMul(hn, layer.w_neigh->value);
  la::Matrix hs = la::dispatch::MatMul(h, layer.w_s->value);
  la::Matrix hnn = la::dispatch::MatMul(hn, layer.w_n->value);
  la::Matrix a_self = la::dispatch::MatMul(
      la::dispatch::MapAct(la::ConcatCols(hs, hs), la::Act::kTanh),
      layer.p->value);
  la::Matrix a_neigh = la::dispatch::MatMul(
      la::dispatch::MapAct(la::ConcatCols(hnn, hs), la::Act::kTanh),
      layer.p->value);
  la::Matrix alphas = la::SoftmaxRows(la::ConcatCols(a_self, a_neigh));
  la::Matrix z =
      la::MulColBroadcast(self_term, la::SliceCols(alphas, 0, 1));
  z.Add(la::MulColBroadcast(neigh_term, la::SliceCols(alphas, 1, 1)));
  return la::dispatch::MapAct(z, la::Act::kRelu);
}

la::Matrix Hag::EmbedInference(const gnn::GraphBatch& batch) const {
  TURBO_CHECK(!chains_.empty());
  const la::Matrix& x = batch.features;

  if (!cfg_.use_cfo) {
    la::Matrix h = x;
    for (const auto& layer : chains_[0]) {
      h = ApplySaoInference(layer, h, batch.union_mean);
    }
    return h;
  }

  std::vector<la::Matrix> type_embeddings;
  type_embeddings.reserve(kNumEdgeTypes);
  for (int r = 0; r < kNumEdgeTypes; ++r) {
    const auto& chain = cfg_.share_type_weights ? chains_[0] : chains_[r];
    la::Matrix h = x;
    for (const auto& layer : chain) {
      h = ApplySaoInference(layer, h, batch.type_mean[r]);
    }
    type_embeddings.push_back(std::move(h));
  }

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

Tensor Hag::Embed(const gnn::GraphBatch& batch, bool training, Rng* rng) {
  TURBO_CHECK(!chains_.empty());
  Tensor x = InputTensor(batch);

  if (!cfg_.use_cfo) {
    // CFO(-): one homogeneous chain on the union graph.
    Tensor h = x;
    for (const auto& layer : chains_[0]) {
      h = ApplySao(layer, h, batch.union_mean);
      h = ag::Dropout(h, cfg_.dropout, training, rng);
    }
    return h;
  }

  // Eq. 10: SAO run independently on every homogeneous subgraph (with
  // shared or type-specific transforms per config).
  std::vector<Tensor> type_embeddings;
  type_embeddings.reserve(kNumEdgeTypes);
  for (int r = 0; r < kNumEdgeTypes; ++r) {
    const auto& chain =
        cfg_.share_type_weights ? chains_[0] : chains_[r];
    Tensor h = x;
    for (const auto& layer : chain) {
      h = ApplySao(layer, h, batch.type_mean[r]);
      h = ag::Dropout(h, cfg_.dropout, training, rng);
    }
    type_embeddings.push_back(h);
  }

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
