// First-order optimizers over autograd parameters.
#pragma once

#include <vector>

#include "autograd/tensor.h"

namespace turbo::ag {

/// Base: owns the parameter list, applies updates from accumulated grads.
class Optimizer {
 public:
  explicit Optimizer(std::vector<Tensor> params);
  virtual ~Optimizer() = default;

  /// Applies one update using each parameter's accumulated gradient, then
  /// leaves the gradients untouched (call ZeroGrad separately).
  virtual void Step() = 0;

  void ZeroGrad();

  const std::vector<Tensor>& params() const { return params_; }

  /// Global gradient-norm clipping; returns the pre-clip norm.
  double ClipGradNorm(double max_norm);

 protected:
  std::vector<Tensor> params_;
};

class Sgd : public Optimizer {
 public:
  Sgd(std::vector<Tensor> params, float lr, float momentum = 0.0f,
      float weight_decay = 0.0f);
  void Step() override;

  float lr;

 private:
  float momentum_;
  float weight_decay_;
  std::vector<la::Matrix> velocity_;
};

class Adam : public Optimizer {
 public:
  Adam(std::vector<Tensor> params, float lr, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f, float weight_decay = 0.0f);
  void Step() override;

  float lr;

 private:
  float beta1_, beta2_, eps_, weight_decay_;
  int64_t t_ = 0;
  std::vector<la::Matrix> m_, v_;
};

}  // namespace turbo::ag
