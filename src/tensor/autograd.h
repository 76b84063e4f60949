// Tape-based reverse-mode automatic differentiation over Tensors.
//
// This plays the role PyTorch's autograd plays for the paper's Seastar: the
// dense ("un-fused") part of a GNN layer — weight matmuls, bias adds,
// activations, the classifier loss — is differentiated here, while each
// compiled vertex-centric execution unit plugs in through CustomOp with a
// backward callback that runs the backward GIR (paper §5.3 "Runtime
// execution": Seastar wraps compiled units as autograd functions).
//
// Var is a cheap shared handle to a node in a dynamically built tape.
// Backward(root) runs reverse topological order, accumulating gradients —
// like the paper's GIR autodiff, a node's gradient is propagated only after
// all of its downstream consumers have contributed (§5.2).
#ifndef SRC_TENSOR_AUTOGRAD_H_
#define SRC_TENSOR_AUTOGRAD_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/tensor/tensor.h"

namespace seastar {

class Var;

namespace autograd_internal {

struct VarNode {
  Tensor value;
  Tensor grad;  // Undefined until first accumulation.
  bool requires_grad = false;
  std::vector<std::shared_ptr<VarNode>> inputs;
  // Maps grad-of-output to grads-of-inputs (entry i may be undefined when
  // inputs[i] does not require grad). Null for leaves.
  std::function<std::vector<Tensor>(const Tensor&)> backward_fn;
  std::string op_name = "leaf";
  // Whether Backward() wraps backward_fn in a "dense" span named
  // "<op_name>/backward". CustomOp nodes clear it: their backward may run
  // anything (a graph executor pass, say) and opens its own spans.
  bool dense_backward = true;
  // Set once Backward() has run backward_fn and released it.
  bool released = false;

  void AccumulateGrad(const Tensor& g);
};

}  // namespace autograd_internal

// A differentiable tensor handle. Copying shares the underlying node.
class Var {
 public:
  Var() = default;

  // Creates a leaf. Parameters use requires_grad = true; inputs/features
  // typically false.
  static Var Leaf(Tensor value, bool requires_grad);

  bool defined() const { return node_ != nullptr; }
  const Tensor& value() const;
  Tensor& mutable_value();
  // The accumulated gradient; undefined Tensor before backward or for
  // non-requires-grad nodes.
  const Tensor& grad() const;
  bool requires_grad() const;
  const std::string& op_name() const;
  void ClearGrad();

  // Internal: constructs an interior node.
  static Var MakeNode(Tensor value, std::vector<Var> inputs,
                      std::function<std::vector<Tensor>(const Tensor&)> backward_fn,
                      std::string op_name);

  std::shared_ptr<autograd_internal::VarNode> node() const { return node_; }

 private:
  std::shared_ptr<autograd_internal::VarNode> node_;
};

// Runs reverse-mode AD from `root`, seeding with `seed` (must match root's
// shape; pass Tensor::Ones for scalar losses). Gradients accumulate into each
// requires-grad node's grad(); call ClearGrad()/optimizer.ZeroGrad() between
// steps.
//
// As each interior node is differentiated, what only the tape still needs
// is released, so a deep tape's memory falls as backward walks it (as
// PyTorch frees a graph's saved tensors): the node's backward_fn and the
// tensors it saved, and — unless a Var outside the tape still refers to the
// node — its value. A graph is differentiated once; a second Backward
// through a released node fails.
void Backward(const Var& root, const Tensor& seed);

// Differentiable operator library ------------------------------------------------------------------

namespace ag {

Var Add(const Var& a, const Var& b);                      // same shape
Var Sub(const Var& a, const Var& b);                      // same shape
Var Mul(const Var& a, const Var& b);                      // same shape
Var AddRowBroadcast(const Var& matrix, const Var& row);   // [N,D] + [D]
Var Matmul(const Var& a, const Var& b);                   // [N,K] x [K,M]
Var GroupedRowDot(const Var& a, const Var& b);            // [N,G*K] x [G,K] -> [N,G]
Var Relu(const Var& a);
Var Elu(const Var& a, float alpha = 1.0f);
Var LogSoftmax(const Var& a);                             // rows
Var Dropout(const Var& a, float p, Rng& rng, bool training);
// Mean negative log-likelihood over `mask_rows` (all rows when empty),
// producing a scalar Var of shape {1}. Input must be log-probabilities.
Var NllLoss(const Var& log_probs, std::vector<int32_t> labels, std::vector<int32_t> mask_rows);

// Generic escape hatch used by the GIR bridge: `output` was computed outside
// the tape from inputs' values; `backward_fn` maps grad(output) to grads of
// each input. Backward() opens no span around it; backward_fn opens its own.
Var CustomOp(std::vector<Var> inputs, Tensor output,
             std::function<std::vector<Tensor>(const Tensor&)> backward_fn, std::string op_name);

}  // namespace ag
}  // namespace seastar

#endif  // SRC_TENSOR_AUTOGRAD_H_
