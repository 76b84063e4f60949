#include "src/core/program.h"

#include <algorithm>
#include <mutex>
#include <sstream>

#include "src/common/deadline.h"
#include "src/common/logging.h"
#include "src/common/tracing.h"
#include "src/core/executor_factory.h"
#include "src/gir/fusion.h"
#include "src/gir/passes.h"
#include "src/tensor/ops.h"

namespace seastar {
namespace {

std::string ShapeString(const std::vector<int64_t>& shape) {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    os << (i > 0 ? ", " : "") << shape[i];
  }
  os << "]";
  return os.str();
}

// Checks that every feature the traced program declared is present with the
// declared shape, and fails naming the offending input — a mis-bound feature
// otherwise surfaces as an opaque out-of-bounds read deep inside a kernel.
void ValidateInputs(const GirGraph& gir, const Graph& graph,
                    const VertexProgram::Inputs& inputs) {
  const int64_t num_vertices = graph.num_vertices();
  const int64_t num_edges = graph.num_edges();
  for (const Node& node : gir.nodes()) {
    if (node.kind == OpKind::kInputTypedSrc) {
      auto it = inputs.typed_vertex.find(node.name);
      SEASTAR_CHECK(it != inputs.typed_vertex.end())
          << "vertex program: missing typed_vertex input '" << node.name << "'";
      const Tensor& value = it->second.value();
      SEASTAR_CHECK(value.defined()) << "vertex program: typed_vertex input '" << node.name
                                     << "' is an undefined tensor";
      SEASTAR_CHECK(value.ndim() == 3 && value.dim(0) == graph.num_edge_types() &&
                    value.dim(1) == num_vertices && value.dim(2) == node.width)
          << "vertex program: typed_vertex input '" << node.name << "' has shape "
          << ShapeString(value.shape()) << ", expected [" << graph.num_edge_types() << ", "
          << num_vertices << ", " << node.width << "]";
      continue;
    }
    if (node.kind != OpKind::kInput) {
      continue;
    }
    if (node.type == GraphType::kEdge) {
      auto it = inputs.edge.find(node.name);
      SEASTAR_CHECK(it != inputs.edge.end())
          << "vertex program: missing edge input '" << node.name << "'";
      const Tensor& value = it->second.value();
      SEASTAR_CHECK(value.defined())
          << "vertex program: edge input '" << node.name << "' is an undefined tensor";
      SEASTAR_CHECK(value.ndim() == 2 && value.dim(0) == num_edges && value.dim(1) == node.width)
          << "vertex program: edge input '" << node.name << "' has shape "
          << ShapeString(value.shape()) << ", expected [" << num_edges << ", " << node.width
          << "]";
    } else {
      auto it = inputs.vertex.find(node.name);
      SEASTAR_CHECK(it != inputs.vertex.end())
          << "vertex program: missing vertex input '" << node.name << "'";
      const Tensor& value = it->second.value();
      SEASTAR_CHECK(value.defined())
          << "vertex program: vertex input '" << node.name << "' is an undefined tensor";
      SEASTAR_CHECK(value.ndim() == 2 && value.dim(0) == num_vertices &&
                    value.dim(1) == node.width)
          << "vertex program: vertex input '" << node.name << "' has shape "
          << ShapeString(value.shape()) << ", expected [" << num_vertices << ", " << node.width
          << "]";
    }
  }
}

}  // namespace

struct VertexProgram::Data {
  GirGraph forward;
  BackwardGir backward;

  // Restrictions of `backward` by requires-grad mask (VertexProgram::
  // backward(needs_grad)), each built once and shared by every later Run;
  // the plan cache keys on GIR content, so each also compiles once.
  mutable std::mutex mu;
  mutable std::map<std::vector<bool>, std::shared_ptr<const BackwardGir>> selected;
};

VertexProgram VertexProgram::Compile(GirBuilder&& builder) {
  auto data = std::make_shared<Data>();
  PassResult passes = RunStandardPasses(builder.graph());
  data->forward = std::move(passes.graph);
  SEASTAR_CHECK_EQ(data->forward.outputs().size(), 1u)
      << "a vertex program must have exactly one output";
  data->backward = BuildBackward(data->forward, data->forward.outputs()[0]);
  OptimizeBackward(&data->backward);
  VertexProgram program;
  program.data_ = std::move(data);
  return program;
}

const GirGraph& VertexProgram::forward() const {
  SEASTAR_CHECK(data_ != nullptr);
  return data_->forward;
}

const BackwardGir& VertexProgram::backward() const {
  SEASTAR_CHECK(data_ != nullptr);
  return data_->backward;
}

std::shared_ptr<const BackwardGir> VertexProgram::backward(
    const std::vector<bool>& needs_grad) const {
  SEASTAR_CHECK(data_ != nullptr);
  if (std::find(needs_grad.begin(), needs_grad.end(), false) == needs_grad.end()) {
    return std::shared_ptr<const BackwardGir>(data_, &data_->backward);
  }
  std::lock_guard<std::mutex> lock(data_->mu);
  std::shared_ptr<const BackwardGir>& slot = data_->selected[needs_grad];
  if (slot == nullptr) {
    slot = std::make_shared<const BackwardGir>(SelectInputGrads(data_->backward, needs_grad));
  }
  return slot;
}

Var VertexProgram::Run(const Inputs& inputs, const ExecutionSession& session) const {
  SEASTAR_CHECK(data_ != nullptr);
  SEASTAR_CHECK(session.defined()) << "vertex program: undefined execution session";
  // Layer-boundary deadline poll: a model Forward that chains several
  // programs aborts between layers without entering the next executor run.
  CheckExecutionDeadline("vertex program");
  const std::shared_ptr<const Data> data = data_;

  ValidateInputs(data->forward, session.graph(), inputs);

  // Bind runtime tensors.
  FeatureMap features;
  for (const auto& [key, var] : inputs.vertex) {
    features.vertex[key] = var.value();
  }
  for (const auto& [key, var] : inputs.edge) {
    features.edge[key] = var.value();
  }
  for (const auto& [key, var] : inputs.typed_vertex) {
    features.typed_vertex[key] = var.value();
  }

  // The tape inputs: every distinct Var whose gradient is needed, together
  // with the backward output names feeding it. An input that needs no
  // gradient (a requires_grad=false leaf such as GCN's norm) is left off the
  // tape, and the backward GIR run for this call does not compute it.
  const auto input_var = [&](const InputGradInfo& info) -> const Var& {
    const std::map<std::string, Var>& vars =
        info.typed ? inputs.typed_vertex
                   : (info.access == GraphType::kEdge ? inputs.edge : inputs.vertex);
    auto it = vars.find(info.key);
    SEASTAR_CHECK(it != vars.end()) << "missing input " << info.key;
    return it->second;
  };
  std::vector<bool> needs_grad;
  needs_grad.reserve(data->backward.input_grads.size());
  for (const InputGradInfo& info : data->backward.input_grads) {
    needs_grad.push_back(input_var(info).requires_grad());
  }
  const std::shared_ptr<const BackwardGir> backward = this->backward(needs_grad);

  // What autograd retains from the forward pass: exactly the values the
  // backward GIR reads through its (seeded) forward-copy nodes. Everything
  // else is a temporary the framework frees eagerly.
  std::vector<int32_t> forward_retain;
  for (size_t fwd_id = 0; fwd_id < backward->forward_copy.size(); ++fwd_id) {
    if (backward->forward_copy[fwd_id] >= 0) {
      forward_retain.push_back(static_cast<int32_t>(fwd_id));
    }
  }
  RunResult fwd;
  {
    trace::AmbientSpan forward_span("vertex_program/forward", "program");
    RunContext forward_ctx;
    forward_ctx.retain = &forward_retain;
    fwd = session.Execute(data->forward, features, forward_ctx);
  }
  SEASTAR_CHECK_EQ(fwd.outputs.size(), 1u);
  Tensor output = fwd.outputs.begin()->second;

  struct TapeInput {
    Var var;
    std::vector<std::string> grad_outputs;
  };
  std::vector<TapeInput> tape_inputs;
  for (const InputGradInfo& info : backward->input_grads) {
    const Var& var = input_var(info);
    const auto same = [&](const TapeInput& entry) { return entry.var.node() == var.node(); };
    auto it = std::find_if(tape_inputs.begin(), tape_inputs.end(), same);
    if (it != tape_inputs.end()) {
      it->grad_outputs.push_back(info.output_name);
    } else {
      tape_inputs.push_back(TapeInput{var, {info.output_name}});
    }
  }

  std::vector<Var> tape_vars;
  tape_vars.reserve(tape_inputs.size());
  for (const TapeInput& entry : tape_inputs) {
    tape_vars.push_back(entry.var);
  }

  // The baselines keep every forward intermediate alive for backward
  // (autograd saved tensors); Seastar recomputes in fused kernels and frees
  // eagerly (§5.3), so its saved map is dropped here.
  std::shared_ptr<std::map<int32_t, Tensor>> saved;
  if (session.executor().saves_intermediates()) {
    saved = fwd.saved;
  }

  std::vector<std::vector<std::string>> grad_output_names;
  grad_output_names.reserve(tape_inputs.size());
  for (const TapeInput& entry : tape_inputs) {
    grad_output_names.push_back(entry.grad_outputs);
  }

  // The executor is kept alive by its shared_ptr; the view's graph pointer
  // and prepared shard state must outlive the tape (the session contract).
  // Backward records into whatever trace is ambient when the tape runs it.
  std::shared_ptr<const Executor> executor = session.executor_ptr();
  GraphView view = session.view();
  auto backward_fn = [backward, executor, view, features, saved,
                      grad_output_names](const Tensor& grad_out) {
    FeatureMap backward_features = features;
    backward_features.vertex[kGradInputKey] = grad_out;

    SeedMap seed;
    const SeedMap* seed_ptr = nullptr;
    if (saved != nullptr) {
      for (size_t fwd_id = 0; fwd_id < backward->forward_copy.size(); ++fwd_id) {
        const int32_t bwd_id = backward->forward_copy[fwd_id];
        if (bwd_id < 0) {
          continue;
        }
        auto it = saved->find(static_cast<int32_t>(fwd_id));
        if (it != saved->end()) {
          seed.emplace(bwd_id, it->second);
        }
      }
      seed_ptr = &seed;
    }

    // Backward temporaries are released as soon as consumed (empty retain).
    const std::vector<int32_t> no_retain;
    RunResult bwd;
    {
      trace::AmbientSpan backward_span("vertex_program/backward", "program");
      RunContext backward_ctx;
      backward_ctx.seed = seed_ptr;
      backward_ctx.retain = &no_retain;
      // Through the same recovery ladder as the session's forward Execute —
      // a transient shard fault mid-backward must not escape into autograd.
      bwd = ExecuteWithRecovery(*executor, view, backward->graph, backward_features,
                                backward_ctx);
    }
    std::vector<Tensor> grads;
    grads.reserve(grad_output_names.size());
    for (const auto& names : grad_output_names) {
      Tensor total;
      for (const std::string& name : names) {
        const Tensor& piece = bwd.outputs.at(name);
        // Single-access inputs share the executor's output tensor directly —
        // cloning a [num_types, N, d] R-GCN gradient stack here would
        // transiently double its footprint. The one output that may alias a
        // caller-owned tensor is the identity adjoint (grad == grad_out
        // itself); that one is cloned so downstream in-place accumulation
        // cannot corrupt the upstream gradient.
        const bool aliases_grad_out = piece.defined() && piece.data() == grad_out.data();
        total = total.defined() ? ops::Add(total, piece)
                                : (aliases_grad_out ? piece.Clone() : piece);
      }
      grads.push_back(std::move(total));
    }
    return grads;
  };

  return ag::CustomOp(std::move(tape_vars), std::move(output), std::move(backward_fn),
                      "vertex_program");
}

std::string VertexProgram::DebugString() const {
  SEASTAR_CHECK(data_ != nullptr);
  std::ostringstream os;
  os << "=== forward GIR ===\n" << data_->forward.ToString();
  os << "=== forward plan ===\n"
     << BuildExecutionPlan(data_->forward).ToString(data_->forward);
  os << "=== backward GIR ===\n" << data_->backward.graph.ToString();
  os << "=== backward plan ===\n"
     << BuildExecutionPlan(data_->backward.graph).ToString(data_->backward.graph);
  return os.str();
}

}  // namespace seastar
