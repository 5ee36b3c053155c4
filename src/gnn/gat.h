// GAT baseline (Veličković et al.): multi-head additive attention over
// the homogeneous union graph (self-loops included).
#pragma once

#include "gnn/model.h"

namespace turbo::gnn {

class Gat : public GnnModel {
 public:
  explicit Gat(GnnConfig cfg = {}) : cfg_(cfg) {}

  void Init(int in_dim) override;
  ag::Tensor Embed(const GraphBatch& batch, bool training,
                   Rng* rng) const override;
  std::vector<ag::Tensor> Params() const override;
  std::string name() const override { return "GAT"; }

 private:
  struct Head {
    ag::Tensor w;      // [d_in, d_out]
    ag::Tensor a_src;  // [d_out, 1]
    ag::Tensor a_dst;  // [d_out, 1]
  };

  GnnConfig cfg_;
  std::vector<std::vector<Head>> layers_;  // [layer][head]
};

}  // namespace turbo::gnn
