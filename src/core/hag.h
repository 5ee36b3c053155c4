// HAG — Heterogeneous Adaptive Graph neural network (Section IV), the
// paper's primary contribution.
//
// Two operators:
//
//  * SAO (Self-aware Aggregation Operator, Eq. 5–9): a per-node attention
//    gate between the node's own transformed feature and its aggregated
//    neighborhood, run independently on every homogeneous per-type
//    subgraph. The gate keeps clique members separable — plain GCN maps
//    every member of a clique to the same point after one round
//    (Theorem 1, verified empirically in tests/core/oversmoothing_test).
//
//  * CFO (Cross-type Fusion Operator, Eq. 10–15): fuses the per-type
//    final embeddings with node-wise attention (micro level) and per-type
//    transformation matrices M_r (macro level).
//
// Ablation switches `use_sao` / `use_cfo` reproduce Table V:
//   use_sao=false  -> SAO(-): the gate is dropped (GraphSAGE-style
//                     aggregation per type), CFO kept.
//   use_cfo=false  -> CFO(-): one SAO chain on the homogeneous union
//                     graph, no type distinction.
//   both false     -> Both(-).
//
// Receptive field. Chain r reads only its own adjacency, so rows
// [0, m) of its output depend on `rows[0]` alone, where rows[L] = [0, m)
// and rows[k-1] = rows[k] plus their neighbours in that adjacency. The
// tape-free forward computes layer k on rows[k] only; every kernel it runs
// is row-local, so the kept rows keep their bits (DESIGN.md §8).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "gnn/model.h"

namespace turbo::core {

struct HagConfig : gnn::GnnConfig {
  bool use_sao = true;
  bool use_cfo = true;
  /// Eq. 10 runs SAO independently per homogeneous subgraph; the paper
  /// leaves open whether the SAO transforms are type-specific. Sharing
  /// them (one SAO parameter set applied to every type's adjacency, with
  /// heterogeneity modeled by CFO's per-type attention and M_r) is far
  /// more sample-efficient at sub-paper dataset scales and is the
  /// default; set false for fully type-specific chains.
  bool share_type_weights = true;
};

class Hag : public gnn::GnnModel {
 public:
  explicit Hag(HagConfig cfg = {}) : cfg_(cfg) {}

  void Init(int in_dim) override;
  ag::Tensor Embed(const gnn::GraphBatch& batch, bool training,
                   Rng* rng) const override;

  /// Tape-free forward: Embed(batch, training=false) recomputed on raw
  /// la::Matrix values — no Node allocation, no backward closures —
  /// through the runtime-dispatched SIMD kernels (la::dispatch). It
  /// matches the scalar autograd forward to float tolerance
  /// (tests/core/inference_equivalence_test), and its AVX2 tier stays
  /// within 4 ULP of its scalar one (tests/core/simd_equivalence_test).
  /// Ignores SetInputOverride: it always reads batch.features.
  la::Matrix EmbedInference(const gnn::GraphBatch& batch) const;
  /// Tape-free Logits: classification head over EmbedInference().
  la::Matrix LogitsInference(const gnn::GraphBatch& batch) const;
  /// The serving forward: the tape-free forward over the targets'
  /// receptive field only (see the top of this file), bit-identical to
  /// the target rows of LogitsInference().
  la::Matrix TargetLogitsInference(
      const gnn::GraphBatch& batch) const override;
  std::vector<ag::Tensor> Params() const override;
  std::string name() const override;

  const HagConfig& config() const { return cfg_; }

  /// The one adjacency view the forward reads: type_mean with CFO,
  /// union_mean without.
  gnn::BatchAdjacency adjacency() const {
    return cfg_.use_cfo ? gnn::BatchAdjacency::kTypeMean
                        : gnn::BatchAdjacency::kUnionMean;
  }

  /// The batch rows whose features the targets' logits read, ascending:
  /// the union over chains of each chain's layer-0 row set. Needs only
  /// the batch's adjacency(). Every other row may hold anything.
  std::vector<uint32_t> InputRows(const gnn::GraphBatch& batch) const;

 private:
  /// One SAO layer's parameters (Eq. 5–9) for one edge type.
  struct SaoLayer {
    ag::Tensor w_self;   // W_ls  [d_in, d_out]
    ag::Tensor w_neigh;  // W_ln  [d_in, d_out]
    ag::Tensor w_s;      // W_s   [d_in, t]
    ag::Tensor w_n;      // W_n   [d_in, t]
    ag::Tensor p;        // p     [2t, 1]
  };
  /// CFO parameters for one edge type (Eq. 12–15).
  struct CfoType {
    ag::Tensor w_attn;  // W_r  [d_k, d_a]
    ag::Tensor v_attn;  // v_r  [d_a, 1]
    ag::Tensor m;       // M_r  [d_k, d_m]
  };

  SaoLayer MakeSaoLayer(int d_in, int d_out, Rng* rng) const;
  ag::Tensor ApplySao(const SaoLayer& layer, const ag::Tensor& h,
                      const la::SparseMatrix& mean_adj) const;
  /// One SAO layer for the rows `h_self`: `mean_adj` holds those rows,
  /// and its columns index the rows of `h`.
  la::Matrix ApplySaoInference(const SaoLayer& layer,
                               const la::Matrix& h_self, const la::Matrix& h,
                               const la::SparseMatrix& mean_adj) const;

  /// SAO chains the forward runs: one per edge type with CFO, else one
  /// on the union graph.
  int num_chains() const { return cfg_.use_cfo ? kNumEdgeTypes : 1; }
  const std::vector<SaoLayer>& ChainLayers(int c) const {
    return chains_.size() == 1 ? chains_[0] : chains_[c];
  }
  const la::SparseMatrix& ChainAdjacency(const gnn::GraphBatch& batch,
                                         int c) const {
    return cfg_.use_cfo ? batch.type_mean[c] : batch.union_mean;
  }

  /// The tape-free forward for rows [0, num_rows): each chain computes
  /// layer k only on the rows layer k+1 reads, then CFO runs on the
  /// output rows.
  la::Matrix EmbedRowsInference(const gnn::GraphBatch& batch,
                                size_t num_rows) const;

  HagConfig cfg_;
  /// chains_[type][layer] with type-specific CFO chains; otherwise one
  /// chain, which every type shares (ChainLayers).
  std::vector<std::vector<SaoLayer>> chains_;
  std::vector<CfoType> cfo_;
};

}  // namespace turbo::core
