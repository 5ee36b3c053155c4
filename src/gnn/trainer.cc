#include "gnn/trainer.h"

#include <cmath>
#include <cstdio>

#include "autograd/optimizer.h"
#include "la/kernel_dispatch.h"
#include "ml/model.h"

namespace turbo::gnn {

using ag::Tensor;

namespace {

/// Sigmoid of the first `rows` logits of a [n, 1] matrix, in double.
std::vector<double> Probabilities(const la::Matrix& logits, size_t rows) {
  TURBO_CHECK_LE(rows, logits.rows());
  std::vector<double> out(rows);
  for (size_t i = 0; i < rows; ++i) {
    const float z = logits(i, 0);
    out[i] = z >= 0.0f ? 1.0 / (1.0 + std::exp(-z))
                       : std::exp(z) / (1.0 + std::exp(z));
  }
  return out;
}

}  // namespace

void MlpHead::Init(int in_dim, int hidden, Rng* rng) {
  w1_ = ag::Param(la::Matrix::Glorot(in_dim, hidden, rng), "head_w1");
  b1_ = ag::Param(la::Matrix(1, hidden), "head_b1");
  w2_ = ag::Param(la::Matrix::Glorot(hidden, 1, rng), "head_w2");
  b2_ = ag::Param(la::Matrix(1, 1), "head_b2");
}

Tensor MlpHead::Forward(const Tensor& h) const {
  TURBO_CHECK(w1_ != nullptr);
  Tensor z = ag::Relu(ag::AddRowBroadcast(ag::MatMul(h, w1_), b1_));
  return ag::AddRowBroadcast(ag::MatMul(z, w2_), b2_);
}

la::Matrix MlpHead::ForwardInference(const la::Matrix& h) const {
  TURBO_CHECK(w1_ != nullptr);
  // Fused GEMM + bias + activation through the dispatched kernels.
  la::Matrix z =
      la::dispatch::MatMulBiasAct(h, w1_->value, &b1_->value, la::Act::kRelu);
  return la::dispatch::MatMulBiasAct(z, w2_->value, &b2_->value,
                                     la::Act::kIdentity);
}

std::vector<Tensor> MlpHead::Params() const {
  return {w1_, b1_, w2_, b2_};
}

la::Matrix GnnModel::TargetLogitsInference(const GraphBatch& batch) const {
  const Tensor logits = Logits(batch, /*training=*/false, nullptr);
  const la::Matrix& all = logits->value;
  TURBO_CHECK_LE(batch.num_targets, all.rows());
  la::Matrix out(batch.num_targets, all.cols());
  std::copy(all.data(), all.data() + out.size(), out.data());
  return out;
}

double GnnTrainer::Fit(GnnModel* model, const GraphBatch& batch,
                       const std::vector<int>& labels) {
  TURBO_CHECK(model != nullptr);
  TURBO_CHECK_EQ(labels.size(), batch.num_targets);
  TURBO_CHECK_GT(batch.num_targets, 0u);

  const double wpos = cfg_.positive_weight > 0
                          ? cfg_.positive_weight
                          : ml::BalancedPositiveWeight(labels);
  const size_t n = batch.num_nodes();
  la::Matrix targets(n, 1);
  la::Matrix sample_w(n, 1);  // zero outside target rows (masked loss)
  for (size_t i = 0; i < labels.size(); ++i) {
    targets(i, 0) = static_cast<float>(labels[i]);
    sample_w(i, 0) = labels[i] != 0 ? static_cast<float>(wpos) : 1.0f;
  }

  ag::Adam opt(model->Params(), cfg_.lr, 0.9f, 0.999f, 1e-8f,
               cfg_.weight_decay);
  Rng rng(cfg_.seed);
  double last_loss = 0.0;
  for (int epoch = 0; epoch < cfg_.epochs; ++epoch) {
    opt.ZeroGrad();
    Tensor logits = model->Logits(batch, /*training=*/true, &rng);
    Tensor loss = ag::BceWithLogits(logits, targets, sample_w);
    last_loss = loss->value(0, 0);
    ag::Backward(loss);
    opt.ClipGradNorm(cfg_.clip_norm);
    opt.Step();
    if (cfg_.verbose && (epoch % 10 == 0 || epoch + 1 == cfg_.epochs)) {
      std::printf("  [%s] epoch %3d loss %.4f\n", model->name().c_str(),
                  epoch, last_loss);
    }
  }
  return last_loss;
}

std::vector<double> GnnTrainer::PredictAll(GnnModel* model,
                                           const GraphBatch& batch) {
  return Probabilities(
      model->Logits(batch, /*training=*/false, nullptr)->value,
      batch.num_nodes());
}

std::vector<double> GnnTrainer::PredictTargets(GnnModel* model,
                                               const GraphBatch& batch) {
  auto all = PredictAll(model, batch);
  all.resize(batch.num_targets);
  return all;
}

std::vector<double> GnnTrainer::PredictTargetsInference(
    const GnnModel& model, const GraphBatch& batch) {
  return Probabilities(model.TargetLogitsInference(batch),
                       batch.num_targets);
}

}  // namespace turbo::gnn
