#include "gnn/sage.h"

namespace turbo::gnn {

using ag::Tensor;

void GraphSage::Init(int in_dim) {
  Rng rng(cfg_.seed);
  self_w_.clear();
  neigh_w_.clear();
  int d = in_dim;
  for (int h : cfg_.hidden) {
    self_w_.push_back(ag::Param(la::Matrix::Glorot(d, h, &rng), "sage_ws"));
    neigh_w_.push_back(ag::Param(la::Matrix::Glorot(d, h, &rng), "sage_wn"));
    d = h;
  }
  head_.Init(d, cfg_.mlp_hidden, &rng);
}

Tensor GraphSage::Embed(const GraphBatch& batch, bool training, Rng* rng) {
  TURBO_CHECK(!self_w_.empty());
  Tensor h = InputTensor(batch);
  for (size_t l = 0; l < self_w_.size(); ++l) {
    Tensor hn = ag::SpMM(batch.union_mean, h);
    h = ag::Relu(ag::Add(ag::MatMul(h, self_w_[l]),
                         ag::MatMul(hn, neigh_w_[l])));
    h = ag::Dropout(h, cfg_.dropout, training, rng);
  }
  return h;
}

la::Matrix GraphSage::EmbedInference(const GraphBatch& batch) const {
  TURBO_CHECK(!self_w_.empty());
  la::Matrix h = batch.features;
  for (size_t l = 0; l < self_w_.size(); ++l) {
    // Inference-only reassociation: ReLU(H Ws + (Ā H) Wn) computed as
    // ReLU(Ā (H Wn) + H Ws) — the SpMM runs on the transformed (narrow)
    // features and fuses with the self-term addend and the activation
    // in one pass. Equal in exact arithmetic; float difference is
    // bounded by the inference-equivalence test.
    la::Matrix self_term = la::dispatch::MatMul(h, self_w_[l]->value);
    h = la::dispatch::SpmmBiasAct(
        batch.union_mean, la::dispatch::MatMul(h, neigh_w_[l]->value),
        &self_term, la::Act::kRelu);
  }
  return h;
}

std::vector<Tensor> GraphSage::Params() const {
  std::vector<Tensor> p = self_w_;
  p.insert(p.end(), neigh_w_.begin(), neigh_w_.end());
  for (const auto& t : head_.Params()) p.push_back(t);
  return p;
}

}  // namespace turbo::gnn
