// Tape-based reverse-mode automatic differentiation.
//
// A Tensor is a shared handle to a Node holding a dense matrix value, an
// optional gradient, and a closure that pushes the node's gradient to its
// parents. The graph is rebuilt on every forward pass (define-by-run);
// Backward() topologically sorts reachable nodes and runs the closures in
// reverse order.
//
// Custom fused operators (sparse aggregation, edge softmax, losses) are
// created with MakeOp and a hand-written backward closure; all backward
// implementations are validated against numerical differentiation in
// tests/autograd/.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "la/matrix.h"

namespace turbo::ag {

class Node;
using Tensor = std::shared_ptr<Node>;

class Node {
 public:
  Node(std::string op, la::Matrix value, bool requires_grad)
      : op_name(std::move(op)),
        value(std::move(value)),
        requires_grad(requires_grad) {}
  /// Out of line on purpose: every Tensor release may run it, and it
  /// releases the parents in turn. The implicit inline one made the
  /// autograd forward of a 41-node serving batch 11% slower (4-vCPU AVX2
  /// VM, bench_serving_throughput's autograd rows).
  ~Node();

  std::string op_name;
  la::Matrix value;
  la::Matrix grad;  // empty until first accumulation
  bool requires_grad;
  std::vector<Tensor> parents;
  /// Pushes this->grad into parents' grads. Null for leaves.
  std::function<void(Node*)> backward_fn;

  size_t rows() const { return value.rows(); }
  size_t cols() const { return value.cols(); }

  bool has_grad() const { return !grad.empty(); }
  /// Adds g into grad, allocating a zero grad on first call.
  void AccumGrad(const la::Matrix& g);
  void ClearGrad() { grad = la::Matrix(); }
};

/// Leaf with no gradient (inputs, labels, fixed masks).
Tensor Constant(la::Matrix value, std::string name = "const");

/// Leaf with gradient (trainable parameter).
Tensor Param(la::Matrix value, std::string name = "param");

/// Interior node; requires_grad is inherited from any parent.
Tensor MakeOp(std::string name, la::Matrix value,
              std::vector<Tensor> parents,
              std::function<void(Node*)> backward);

/// Runs reverse-mode accumulation from `root`, which must be 1x1 (a loss).
/// Parameter gradients accumulate across calls until cleared.
void Backward(const Tensor& root);

/// Distinct-node count reachable from root (diagnostics/tests).
size_t GraphSize(const Tensor& root);

}  // namespace turbo::ag
