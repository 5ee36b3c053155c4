// Common interface for the graph neural networks of Table III and HAG.
#pragma once

#include <string>
#include <vector>

#include "autograd/ops.h"
#include "gnn/graph_batch.h"
#include "la/kernel_dispatch.h"
#include "util/rng.h"

namespace turbo::gnn {

struct GnnConfig {
  /// Hidden sizes of the two graph layers. The paper uses {128, 64}; the
  /// benches default to a single-core-friendly {64, 32}.
  std::vector<int> hidden = {64, 32};
  /// Classification head hidden units ("cascaded by a MLP with 32").
  int mlp_hidden = 32;
  /// Attention hidden size `t` for SAO/CFO/GAT (paper: 64).
  int attention_dim = 32;
  int gat_heads = 2;
  float dropout = 0.1f;
  uint64_t seed = 11;
};

/// Shared classification head: ReLU MLP with one hidden layer -> logit.
class MlpHead {
 public:
  void Init(int in_dim, int hidden, Rng* rng);
  ag::Tensor Forward(const ag::Tensor& h) const;
  /// Tape-free Forward on a raw matrix through the dispatched fused
  /// GEMM+bias+act kernels.
  la::Matrix ForwardInference(const la::Matrix& h) const;
  std::vector<ag::Tensor> Params() const;

 private:
  ag::Tensor w1_, b1_, w2_, b2_;
};

class GnnModel {
 public:
  virtual ~GnnModel() = default;

  /// Builds parameters for the given input feature dimension. Must be
  /// called once before Embed()/Logits().
  virtual void Init(int in_dim) = 0;

  /// Final node embeddings [n, d_k] — the representation the influence
  /// analysis (Definition 1) differentiates. `training` enables dropout.
  virtual ag::Tensor Embed(const GraphBatch& batch, bool training,
                           Rng* rng) = 0;

  /// Per-node logits [n, 1]: classification head over Embed().
  ag::Tensor Logits(const GraphBatch& batch, bool training, Rng* rng) {
    return head_.Forward(Embed(batch, training, rng));
  }

  /// Tape-free forward: Embed(batch, training=false) recomputed on raw
  /// la::Matrix values — no Node allocation, no backward closures, no
  /// std::function dispatch — through the runtime-dispatched SIMD
  /// kernels (la::dispatch) with fused SpMM/GEMM epilogues. The
  /// autograd forward stays on the plain scalar la:: kernels, so the
  /// two paths agree to tight float tolerance rather than bit-for-bit:
  /// SIMD tiers differ by FMA contraction (<= 4 ULP, enforced by
  /// tests/core/simd_equivalence_test) and some models reassociate
  /// aggregate-and-transform for fusion (verified in
  /// tests/core/inference_equivalence_test). Ignores SetInputOverride
  /// (serving path only — always reads batch.features).
  virtual la::Matrix EmbedInference(const GraphBatch& batch) const = 0;

  /// Tape-free Logits: classification head over EmbedInference().
  la::Matrix LogitsInference(const GraphBatch& batch) const {
    return head_.ForwardInference(EmbedInference(batch));
  }

  /// Tape-free logits of the target rows only, [num_targets, 1]: rows
  /// [0, num_targets) of LogitsInference(), bit for bit. The default
  /// slices them; a model that can skip the rows no target reads
  /// overrides this.
  virtual la::Matrix TargetLogitsInference(const GraphBatch& batch) const;

  virtual std::vector<ag::Tensor> Params() const = 0;
  virtual std::string name() const = 0;

  /// Replaces the batch-features input leaf with a caller-provided tensor
  /// on subsequent Embed() calls (pass nullptr to reset). Used by the
  /// influence analysis to differentiate embeddings w.r.t. node inputs.
  void SetInputOverride(ag::Tensor input) {
    input_override_ = std::move(input);
  }

 protected:
  /// Models obtain their input leaf through this hook.
  ag::Tensor InputTensor(const GraphBatch& batch) const {
    if (input_override_) {
      TURBO_CHECK(input_override_->value.same_shape(batch.features));
      return input_override_;
    }
    return ag::Constant(batch.features, "x");
  }

  MlpHead head_;

 private:
  ag::Tensor input_override_;
};

}  // namespace turbo::gnn
