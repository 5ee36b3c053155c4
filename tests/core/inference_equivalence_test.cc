// The serving forward of every model, GnnTrainer::PredictTargetsInference.
//
// HAG, the served model, has a tape-free forward: Hag::EmbedInference /
// LogitsInference must reproduce the autograd forward (Embed with
// training=false) on trained weights under every ablation-flag
// combination. It runs different kernels (dispatched, fused GEMM
// epilogues), so the match is float-tolerance (AllClose), not bit for
// bit. The kernel ISA is pinned to scalar here; SIMD-tier drift against
// scalar is bounded separately by tests/core/simd_equivalence_test.cc.
// HAG's targets-only forward (TargetLogitsInference) must equal the
// target rows of its full tape-free forward bit for bit, on both tiers.
//
// GCN, GraphSAGE and GAT have only their autograd forward, so their
// serving forward must equal PredictTargets bit for bit.
#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/hag.h"
#include "gnn/gat.h"
#include "gnn/gcn.h"
#include "gnn/sage.h"
#include "gnn/trainer.h"
#include "la/cpu_features.h"
#include "tests/core/test_graphs.h"
#include "tests/la/ulp_test_util.h"

namespace turbo::core {
namespace {

std::vector<int> AlternatingLabels(size_t n) {
  std::vector<int> labels(n);
  for (size_t i = 0; i < n; ++i) labels[i] = static_cast<int>(i % 2);
  return labels;
}

/// Trains briefly (so the weights are not at init), then checks the
/// tape-free forward against the autograd forward at every level:
/// embeddings, logits, and sigmoid predictions.
void ExpectInferenceMatchesAutograd(Hag* model, const gnn::GraphBatch& batch) {
  la::ScopedKernelIsa scalar(la::KernelIsa::kScalar);
  model->Init(static_cast<int>(batch.features.cols()));
  gnn::TrainConfig tcfg;
  tcfg.epochs = 8;
  gnn::GnnTrainer trainer(tcfg);
  trainer.Fit(model, batch, AlternatingLabels(batch.num_targets));

  ag::Tensor emb = model->Embed(batch, /*training=*/false, nullptr);
  la::Matrix emb_inf = model->EmbedInference(batch);
  EXPECT_TRUE(la::AllClose(emb->value, emb_inf))
      << model->name() << " embeddings diverge";

  ag::Tensor logits = model->Logits(batch, /*training=*/false, nullptr);
  la::Matrix logits_inf = model->LogitsInference(batch);
  EXPECT_TRUE(la::AllClose(logits->value, logits_inf))
      << model->name() << " logits diverge";

  const auto probs = gnn::GnnTrainer::PredictTargets(model, batch);
  const auto probs_inf =
      gnn::GnnTrainer::PredictTargetsInference(*model, batch);
  ASSERT_EQ(probs.size(), probs_inf.size());
  for (size_t i = 0; i < probs.size(); ++i) {
    EXPECT_NEAR(probs[i], probs_inf[i], 1e-6)
        << model->name() << " prediction " << i;
  }
}

TEST(InferenceEquivalenceTest, HagAllAblationFlagCombos) {
  const gnn::GraphBatch batch = testing::MakePath(12, 31);
  for (bool use_sao : {true, false}) {
    for (bool use_cfo : {true, false}) {
      HagConfig cfg;
      cfg.hidden = {8, 4};
      cfg.attention_dim = 4;
      cfg.mlp_hidden = 4;
      cfg.use_sao = use_sao;
      cfg.use_cfo = use_cfo;
      Hag model(cfg);
      SCOPED_TRACE(model.name());
      ExpectInferenceMatchesAutograd(&model, batch);
    }
  }
}

TEST(InferenceEquivalenceTest, HagTypeSpecificChains) {
  const gnn::GraphBatch batch = testing::MakePath(12, 32);
  HagConfig cfg;
  cfg.hidden = {8, 4};
  cfg.attention_dim = 4;
  cfg.mlp_hidden = 4;
  cfg.share_type_weights = false;
  Hag model(cfg);
  ExpectInferenceMatchesAutograd(&model, batch);
}

/// HAG's targets-only forward computes each chain's receptive field
/// only. Its logits must equal the target rows of the full forward bit
/// for bit, on every kernel tier the host has, and must not read the
/// features of any row outside InputRows().
void ExpectTargetLogitsMatchFull(Hag* model, int num_targets) {
  const gnn::GraphBatch train = testing::MakePath(12, 36);
  {
    la::ScopedKernelIsa scalar(la::KernelIsa::kScalar);
    model->Init(static_cast<int>(train.features.cols()));
    gnn::TrainConfig tcfg;
    tcfg.epochs = 8;
    gnn::GnnTrainer trainer(tcfg);
    trainer.Fit(model, train, AlternatingLabels(train.num_targets));
  }
  const gnn::GraphBatch batch = testing::MakePath(12, 36, num_targets);
  // The path's far end lies outside every receptive field, so the
  // forward must skip rows and cannot pass by computing all of them.
  const std::vector<uint32_t> rows = model->InputRows(batch);
  ASSERT_LT(rows.size(), batch.num_nodes());
  gnn::GraphBatch pruned = batch;
  std::vector<char> read(batch.num_nodes(), 0);
  for (uint32_t r : rows) read[r] = 1;
  for (size_t r = 0; r < batch.num_nodes(); ++r) {
    if (!read[r]) pruned.features.row(r)[0] = 1e3f;
  }
  for (la::KernelIsa isa : {la::KernelIsa::kScalar, la::KernelIsa::kAvx2}) {
    if (!la::IsaSupported(isa)) continue;
    SCOPED_TRACE(la::IsaName(isa));
    la::ScopedKernelIsa forced(isa);
    // Rows [0, num_targets) of the full tape-free forward.
    const la::Matrix all = model->LogitsInference(batch);
    ASSERT_GT(all.rows(), batch.num_targets);
    la::Matrix full(batch.num_targets, all.cols());
    std::copy(all.data(), all.data() + full.size(), full.data());
    la::testing::ExpectBitEqual(full, model->TargetLogitsInference(batch),
                                "targets-only logits");
    la::testing::ExpectBitEqual(full, model->TargetLogitsInference(pruned),
                                "targets-only logits, unread rows changed");
  }
}

TEST(InferenceEquivalenceTest, HagTargetLogitsEqualFullForwardBitForBit) {
  for (bool use_sao : {true, false}) {
    for (bool use_cfo : {true, false}) {
      for (bool share : {true, false}) {
        for (int num_targets : {1, 3}) {
          HagConfig cfg;
          cfg.hidden = {8, 4};
          cfg.attention_dim = 4;
          cfg.mlp_hidden = 4;
          cfg.use_sao = use_sao;
          cfg.use_cfo = use_cfo;
          cfg.share_type_weights = share;
          Hag model(cfg);
          SCOPED_TRACE(::testing::Message()
                       << model.name() << " share=" << share
                       << " targets=" << num_targets);
          ExpectTargetLogitsMatchFull(&model, num_targets);
        }
      }
    }
  }
}

/// A baseline's serving forward is its eval-mode autograd forward, so
/// after brief training PredictTargetsInference must equal PredictTargets
/// bit for bit. The batch has fewer targets than nodes, so the target
/// rows are sliced out of a larger forward.
void ExpectServingForwardIsAutograd(gnn::GnnModel* model) {
  const gnn::GraphBatch batch = testing::MakePath(12, 33, /*num_targets=*/5);
  model->Init(static_cast<int>(batch.features.cols()));
  gnn::TrainConfig tcfg;
  tcfg.epochs = 8;
  gnn::GnnTrainer trainer(tcfg);
  trainer.Fit(model, batch, AlternatingLabels(batch.num_targets));

  const auto probs = gnn::GnnTrainer::PredictTargets(model, batch);
  const auto served = gnn::GnnTrainer::PredictTargetsInference(*model, batch);
  ASSERT_EQ(probs.size(), batch.num_targets);
  ASSERT_EQ(served.size(), probs.size());
  for (size_t i = 0; i < probs.size(); ++i) {
    EXPECT_EQ(probs[i], served[i]) << model->name() << " prediction " << i;
  }
}

TEST(InferenceEquivalenceTest, Gcn) {
  gnn::GnnConfig cfg;
  cfg.hidden = {8, 4};
  cfg.mlp_hidden = 4;
  gnn::Gcn model(cfg);
  ExpectServingForwardIsAutograd(&model);
}

TEST(InferenceEquivalenceTest, GraphSage) {
  gnn::GnnConfig cfg;
  cfg.hidden = {8, 4};
  cfg.mlp_hidden = 4;
  gnn::GraphSage model(cfg);
  ExpectServingForwardIsAutograd(&model);
}

TEST(InferenceEquivalenceTest, Gat) {
  gnn::GnnConfig cfg;
  cfg.hidden = {8, 4};
  cfg.mlp_hidden = 4;
  cfg.attention_dim = 4;
  cfg.gat_heads = 2;
  gnn::Gat model(cfg);
  ExpectServingForwardIsAutograd(&model);
}

}  // namespace
}  // namespace turbo::core
