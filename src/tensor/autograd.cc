#include "src/tensor/autograd.h"

#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "src/common/logging.h"
#include "src/common/tracing.h"
#include "src/tensor/ops.h"

namespace seastar {

namespace autograd_internal {

void VarNode::AccumulateGrad(const Tensor& g) {
  if (!grad.defined()) {
    // Share the incoming tensor rather than cloning: every backward_fn in
    // this codebase returns exclusively owned (or freshly cloned) tensors,
    // and for wide gradients (R-GCN's [R, N, d] stacks) the extra copy is
    // the difference between fitting the memory budget and OOM.
    grad = g;
    return;
  }
  SEASTAR_CHECK(grad.shape() == g.shape());
  float* pd = grad.data();
  const float* ps = g.data();
  for (int64_t i = 0; i < grad.numel(); ++i) {
    pd[i] += ps[i];
  }
}

}  // namespace autograd_internal

using autograd_internal::VarNode;

Var Var::Leaf(Tensor value, bool requires_grad) {
  Var v;
  v.node_ = std::make_shared<VarNode>();
  v.node_->value = std::move(value);
  v.node_->requires_grad = requires_grad;
  return v;
}

const Tensor& Var::value() const {
  SEASTAR_CHECK(defined());
  return node_->value;
}

Tensor& Var::mutable_value() {
  SEASTAR_CHECK(defined());
  return node_->value;
}

const Tensor& Var::grad() const {
  SEASTAR_CHECK(defined());
  return node_->grad;
}

bool Var::requires_grad() const { return defined() && node_->requires_grad; }

const std::string& Var::op_name() const {
  SEASTAR_CHECK(defined());
  return node_->op_name;
}

void Var::ClearGrad() {
  SEASTAR_CHECK(defined());
  node_->grad = Tensor();
}

Var Var::MakeNode(Tensor value, std::vector<Var> inputs,
                  std::function<std::vector<Tensor>(const Tensor&)> backward_fn,
                  std::string op_name) {
  Var v;
  v.node_ = std::make_shared<VarNode>();
  v.node_->value = std::move(value);
  v.node_->op_name = std::move(op_name);
  bool any_grad = false;
  v.node_->inputs.reserve(inputs.size());
  for (const Var& input : inputs) {
    SEASTAR_CHECK(input.defined());
    any_grad = any_grad || input.requires_grad();
    v.node_->inputs.push_back(input.node());
  }
  v.node_->requires_grad = any_grad;
  if (any_grad) {
    v.node_->backward_fn = std::move(backward_fn);
  }
  return v;
}

void Backward(const Var& root, const Tensor& seed) {
  SEASTAR_CHECK(root.defined());
  SEASTAR_CHECK(root.requires_grad()) << "Backward on a graph with no requires-grad leaves";
  SEASTAR_CHECK(seed.shape() == root.value().shape());

  // Iterative post-order DFS to get a topological order of the tape.
  std::vector<VarNode*> topo;
  std::unordered_set<VarNode*> visited;
  std::vector<std::pair<VarNode*, size_t>> stack;
  std::unordered_map<VarNode*, std::shared_ptr<VarNode>> keep_alive;

  auto push = [&](const std::shared_ptr<VarNode>& node) {
    if (node->requires_grad && visited.insert(node.get()).second) {
      stack.emplace_back(node.get(), 0);
      keep_alive.emplace(node.get(), node);
    }
  };
  push(root.node());
  while (!stack.empty()) {
    auto& [node, child_index] = stack.back();
    if (child_index < node->inputs.size()) {
      const auto& child = node->inputs[child_index++];
      if (child->requires_grad && visited.find(child.get()) == visited.end()) {
        visited.insert(child.get());
        keep_alive.emplace(child.get(), child);
        stack.emplace_back(child.get(), 0);
      }
    } else {
      topo.push_back(node);
      stack.pop_back();
    }
  }

  // References each tape node gets from its consumers on the tape: a node
  // with no reference beyond these and keep_alive's is held by nothing
  // outside the tape.
  std::unordered_map<VarNode*, long> tape_refs;
  for (VarNode* node : topo) {
    for (const auto& child : node->inputs) {
      if (child->requires_grad) {
        ++tape_refs[child.get()];
      }
    }
  }

  root.node()->AccumulateGrad(seed);

  // topo is post-order (children before parents), so iterate in reverse:
  // every node's grad is complete before it propagates to its inputs —
  // the same "all downstream operators differentiated first" invariant the
  // paper maintains for GIR autodiff (§5.2).
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    VarNode* node = *it;
    SEASTAR_CHECK(!node->released)
        << "backward through '" << node->op_name << "' a second time: its graph was released";
    if (!node->backward_fn) {
      continue;  // Leaf.
    }
    SEASTAR_CHECK(node->grad.defined())
        << "node '" << node->op_name << "' reached without gradient";
    // One span per dense backward node. Untraced that is a thread-local load
    // and a null test; the op name is interned only while recording.
    std::optional<trace::AmbientSpan> span;
    if (node->dense_backward && trace::CurrentTrace() != nullptr) {
      span.emplace(trace::Intern(node->op_name + "/backward"), "dense");
    }
    std::vector<Tensor> input_grads = node->backward_fn(node->grad);
    SEASTAR_CHECK_EQ(input_grads.size(), node->inputs.size())
        << "op '" << node->op_name << "' returned wrong grad count";
    for (size_t i = 0; i < input_grads.size(); ++i) {
      if (node->inputs[i]->requires_grad) {
        SEASTAR_CHECK(input_grads[i].defined())
            << "op '" << node->op_name << "' missing grad for requires-grad input " << i;
        node->inputs[i]->AccumulateGrad(input_grads[i]);
      }
    }
    // Free the interior gradient and the saved tensors eagerly (the paper
    // clears its tensor map entries once no dependency remains, §5.3).
    // Every consumer has run too, so unless a Var outside the tape holds
    // the node its value is dead. Released after backward_fn, not before:
    // a block freed just before a vertex program's backward run is the one
    // that run's output then takes, which made GCN's backward on amz_comp
    // ~10% slower in an in-process A/B.
    node->grad = Tensor();
    node->backward_fn = nullptr;
    node->released = true;
    if (node != root.node().get() &&
        keep_alive.at(node).use_count() == 1 + tape_refs[node]) {
      node->value = Tensor();
    }
  }
}

namespace ag {
namespace {

// Runs a forward dense kernel inside a "dense" span named after the op, the
// name its backward node records too.
template <typename Kernel>
Tensor DenseForward(const char* op_name, Kernel&& kernel) {
  trace::AmbientSpan span(op_name, "dense");
  return kernel();
}

}  // namespace

Var Add(const Var& a, const Var& b) {
  Tensor out = ops::Add(a.value(), b.value());
  return Var::MakeNode(
      std::move(out), {a, b},
      [](const Tensor& g) { return std::vector<Tensor>{g.Clone(), g.Clone()}; }, "add");
}

Var Sub(const Var& a, const Var& b) {
  Tensor out = ops::Sub(a.value(), b.value());
  return Var::MakeNode(
      std::move(out), {a, b},
      [](const Tensor& g) { return std::vector<Tensor>{g.Clone(), ops::Neg(g)}; }, "sub");
}

Var Mul(const Var& a, const Var& b) {
  Tensor out = ops::Mul(a.value(), b.value());
  Tensor av = a.value();
  Tensor bv = b.value();
  return Var::MakeNode(
      std::move(out), {a, b},
      [av, bv](const Tensor& g) {
        return std::vector<Tensor>{ops::Mul(g, bv), ops::Mul(g, av)};
      },
      "mul");
}

Var AddRowBroadcast(const Var& matrix, const Var& row) {
  Tensor out = DenseForward("add_row_broadcast",
                             [&] { return ops::AddRowBroadcast(matrix.value(), row.value()); });
  const bool scalar_row = row.value().numel() == 1;
  return Var::MakeNode(
      std::move(out), {matrix, row},
      [scalar_row](const Tensor& g) {
        Tensor row_grad = scalar_row ? Tensor::FromScalar(ops::SumAll(g)) : ops::ColSum(g);
        return std::vector<Tensor>{g.Clone(), std::move(row_grad)};
      },
      "add_row_broadcast");
}

Var Matmul(const Var& a, const Var& b) {
  Tensor out = DenseForward("matmul", [&] { return ops::Matmul(a.value(), b.value()); });
  // dA = g @ B^T needs only B, dB = A^T @ g only A. An input that needs no
  // gradient (the features leaf under a first-layer weight) gets none
  // computed: its entry stays undefined, which Backward() skips.
  const Tensor av = b.requires_grad() ? a.value() : Tensor();
  const Tensor bv = a.requires_grad() ? b.value() : Tensor();
  return Var::MakeNode(
      std::move(out), {a, b},
      [av, bv](const Tensor& g) {
        return std::vector<Tensor>{bv.defined() ? ops::MatmulTransposeB(g, bv) : Tensor(),
                                   av.defined() ? ops::MatmulTransposeA(av, g) : Tensor()};
      },
      "matmul");
}

Var GroupedRowDot(const Var& a, const Var& b) {
  Tensor out =
      DenseForward("grouped_row_dot", [&] { return ops::GroupedRowDot(a.value(), b.value()); });
  // As Matmul: each side's gradient needs only the other side's value.
  const Tensor av = b.requires_grad() ? a.value() : Tensor();
  const Tensor bv = a.requires_grad() ? b.value() : Tensor();
  return Var::MakeNode(
      std::move(out), {a, b},
      [av, bv](const Tensor& g) {
        return std::vector<Tensor>{bv.defined() ? ops::GroupedRowDotGradA(g, bv) : Tensor(),
                                   av.defined() ? ops::GroupedRowDotGradB(av, g) : Tensor()};
      },
      "grouped_row_dot");
}

Var Relu(const Var& a) {
  Tensor out = DenseForward("relu", [&] { return ops::Relu(a.value()); });
  Tensor av = a.value();
  return Var::MakeNode(
      std::move(out), {a},
      [av](const Tensor& g) { return std::vector<Tensor>{ops::ReluGrad(g, av)}; }, "relu");
}

Var Elu(const Var& a, float alpha) {
  Tensor out = DenseForward("elu", [&] { return ops::Elu(a.value(), alpha); });
  Tensor saved = out;
  return Var::MakeNode(
      std::move(out), {a},
      [saved, alpha](const Tensor& g) {
        return std::vector<Tensor>{ops::EluGradFromOutput(g, saved, alpha)};
      },
      "elu");
}

Var LogSoftmax(const Var& a) {
  Tensor out = DenseForward("log_softmax", [&] { return ops::LogSoftmax(a.value()); });
  Tensor saved = out;
  return Var::MakeNode(
      std::move(out), {a},
      [saved](const Tensor& g) {
        // d/dx log_softmax: g - softmax * rowsum(g).
        Tensor softmax = ops::Exp(saved);
        Tensor row_totals = ops::RowSum(g);
        Tensor correction = ops::MulColBroadcast(softmax, row_totals);
        return std::vector<Tensor>{ops::Sub(g, correction)};
      },
      "log_softmax");
}

Var Dropout(const Var& a, float p, Rng& rng, bool training) {
  if (!training || p <= 0.0f) {
    return a;
  }
  trace::AmbientSpan span("dropout", "dense");
  // No mask is kept: the backward replays the keep values from a copy of
  // the stream state this draw starts from (g[i] * keep_i, the bits of
  // g * mask), leaving the model's own Rng where the forward left it.
  const RngState state = rng.SaveState();
  Tensor out = ops::Dropout(a.value(), p, rng);
  span.Set(trace::Arg::kBytesMaterialized, static_cast<int64_t>(out.nbytes()));
  return Var::MakeNode(
      std::move(out), {a},
      [state, p](const Tensor& g) {
        Rng replay;
        replay.RestoreState(state);
        return std::vector<Tensor>{ops::Dropout(g, p, replay)};
      },
      "dropout");
}

Var NllLoss(const Var& log_probs, std::vector<int32_t> labels, std::vector<int32_t> mask_rows) {
  Tensor loss = DenseForward("nll_loss", [&] {
    return Tensor::FromScalar(ops::NllLoss(log_probs.value(), labels, mask_rows));
  });
  Tensor lp = log_probs.value();
  return Var::MakeNode(
      std::move(loss), {log_probs},
      [lp, labels = std::move(labels), mask_rows = std::move(mask_rows)](const Tensor& g) {
        Tensor grad = ops::CrossEntropyGrad(lp, labels, mask_rows);
        return std::vector<Tensor>{ops::MulScalar(grad, g.at(0))};
      },
      "nll_loss");
}

Var CustomOp(std::vector<Var> inputs, Tensor output,
             std::function<std::vector<Tensor>(const Tensor&)> backward_fn, std::string op_name) {
  Var out = Var::MakeNode(std::move(output), std::move(inputs), std::move(backward_fn),
                          std::move(op_name));
  out.node()->dense_backward = false;
  return out;
}

}  // namespace ag
}  // namespace seastar
