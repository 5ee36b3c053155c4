// GCN baseline (Kipf & Welling), re-implemented as the paper does for the
// inductive setting: random-walk normalized aggregation D^-1 (A + I) over
// the homogeneous union graph.
#pragma once

#include "gnn/model.h"

namespace turbo::gnn {

class Gcn : public GnnModel {
 public:
  explicit Gcn(GnnConfig cfg = {}) : cfg_(cfg) {}

  void Init(int in_dim) override;
  ag::Tensor Embed(const GraphBatch& batch, bool training,
                   Rng* rng) const override;
  std::vector<ag::Tensor> Params() const override;
  std::string name() const override { return "GCN"; }

 private:
  GnnConfig cfg_;
  std::vector<ag::Tensor> weights_;  // per layer
};

}  // namespace turbo::gnn
