// SIMD-tier equivalence at model level: HAG's tape-free EmbedInference
// and LogitsInference under the AVX2 tier, where the host supports it,
// must stay within 4 ULP (with a cancellation abs-floor) of the
// forced-scalar inference path, under every SAO x CFO ablation combo.
// HAG is the only model with a tape-free forward, so the only one whose
// forward runs the dispatched kernels. This is the end-to-end companion
// of the kernel-level sweep in tests/la/dispatch_test.cc: kernels that
// individually stay within a few ULP could still compound through
// layers, so the bound here is on the full forward.
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/hag.h"
#include "gnn/trainer.h"
#include "la/cpu_features.h"
#include "tests/core/test_graphs.h"
#include "tests/la/ulp_test_util.h"

namespace turbo::core {
namespace {

using la::testing::ExpectUlpClose;

constexpr int64_t kMaxUlps = 4;

std::vector<int> AlternatingLabels(size_t n) {
  std::vector<int> labels(n);
  for (size_t i = 0; i < n; ++i) labels[i] = static_cast<int>(i % 2);
  return labels;
}

/// Cancellation floor scaled to the magnitude of the reference output:
/// a layer stack accumulates over O(hidden * layers) terms, so elements
/// whose true value is tiny relative to the activations cannot hold a
/// relative ULP bound.
float ModelFloor(const la::Matrix& ref) {
  return 64.0f * std::numeric_limits<float>::epsilon() * ref.MaxAbs();
}

/// Trains briefly (training always runs the scalar table; the scalar
/// scope covers the reference forward), then checks the AVX2 tier, when
/// the host supports it, against the forced-scalar inference forward.
void ExpectSimdMatchesScalar(Hag* model, const gnn::GraphBatch& batch) {
  la::Matrix emb_ref, logits_ref;
  {
    la::ScopedKernelIsa scalar(la::KernelIsa::kScalar);
    model->Init(static_cast<int>(batch.features.cols()));
    gnn::TrainConfig tcfg;
    tcfg.epochs = 8;
    gnn::GnnTrainer trainer(tcfg);
    trainer.Fit(model, batch, AlternatingLabels(batch.num_targets));
    emb_ref = model->EmbedInference(batch);
    logits_ref = model->LogitsInference(batch);
  }
  if (!la::IsaSupported(la::KernelIsa::kAvx2)) return;
  la::ScopedKernelIsa forced(la::KernelIsa::kAvx2);
  ExpectUlpClose(emb_ref, model->EmbedInference(batch), kMaxUlps,
                 ModelFloor(emb_ref), "EmbedInference");
  ExpectUlpClose(logits_ref, model->LogitsInference(batch), kMaxUlps,
                 ModelFloor(logits_ref), "LogitsInference");
}

TEST(SimdEquivalenceTest, HagAllAblationFlagCombos) {
  const gnn::GraphBatch batch = testing::MakePath(12, 41);
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
      ExpectSimdMatchesScalar(&model, batch);
    }
  }
}

TEST(SimdEquivalenceTest, HagTypeSpecificChains) {
  const gnn::GraphBatch batch = testing::MakePath(12, 42);
  HagConfig cfg;
  cfg.hidden = {8, 4};
  cfg.attention_dim = 4;
  cfg.mlp_hidden = 4;
  cfg.share_type_weights = false;
  Hag model(cfg);
  ExpectSimdMatchesScalar(&model, batch);
}

}  // namespace
}  // namespace turbo::core
