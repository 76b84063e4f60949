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
  // backward(needs_grad)) and their variants reading a set of saved forward
  // values as leaves (backward(needs_grad, saved)), each built once and
  // shared by every later Run; the plan cache keys on GIR content, so each
  // also compiles once.
  mutable std::mutex mu;
  mutable std::map<std::vector<bool>, std::shared_ptr<const BackwardGir>> selected;
  mutable std::map<std::pair<std::vector<bool>, std::vector<int32_t>>,
                   std::shared_ptr<const BackwardGir>>
      reading;
};

namespace {

// The forward values `backward` reads through a forward copy that an
// executor could hand over: every non-leaf, non-scalar one. What the
// forward run is asked to retain.
std::vector<int32_t> SavableValues(const GirGraph& forward, const BackwardGir& backward) {
  std::vector<int32_t> ids;
  for (const Node& node : forward.nodes()) {
    if (backward.forward_copy[static_cast<size_t>(node.id)] >= 0 && !IsLeaf(node.kind) &&
        node.type != GraphType::kParam) {
      ids.push_back(node.id);
    }
  }
  return ids;
}

}  // namespace

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

std::shared_ptr<const BackwardGir> VertexProgram::backward(
    const std::vector<bool>& needs_grad, const std::vector<int32_t>& saved) const {
  std::shared_ptr<const BackwardGir> selected = backward(needs_grad);
  if (saved.empty()) {
    return selected;
  }
  std::lock_guard<std::mutex> lock(data_->mu);
  std::shared_ptr<const BackwardGir>& slot = data_->reading[{needs_grad, saved}];
  if (slot == nullptr) {
    slot = std::make_shared<const BackwardGir>(ReadSavedValues(*selected, saved));
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
  const bool any_grad = std::find(needs_grad.begin(), needs_grad.end(), true) != needs_grad.end();

  // What autograd retains from the forward pass: the values the backward
  // GIR reads through its forward-copy nodes, and nothing when no input
  // needs a gradient. Everything else is a temporary the executor frees
  // eagerly.
  const std::vector<int32_t> forward_retain =
      any_grad ? SavableValues(data->forward, *this->backward(needs_grad))
               : std::vector<int32_t>{};
  RunResult fwd;
  {
    trace::AmbientSpan forward_span("vertex_program/forward", "program");
    RunContext forward_ctx;
    forward_ctx.retain = &forward_retain;
    fwd = session.Execute(data->forward, features, forward_ctx);
  }
  SEASTAR_CHECK_EQ(fwd.outputs.size(), 1u);
  Tensor output = fwd.outputs.begin()->second;

  // The retained values the executor returned become input leaves of the
  // backward, which then no longer recomputes them or what only fed them.
  // The Seastar executor returns what its plan materialized, the baselines
  // every retained value, the sharded runtime none (its backward recomputes).
  std::vector<int32_t> saved_ids;
  for (int32_t id : forward_retain) {
    if (fwd.saved != nullptr && fwd.saved->count(id) > 0) {
      saved_ids.push_back(id);
    }
  }
  const std::shared_ptr<const BackwardGir> backward = this->backward(needs_grad, saved_ids);
  for (int32_t id : saved_ids) {
    const int32_t leaf = backward->forward_copy[static_cast<size_t>(id)];
    if (leaf < 0 || backward->graph.node(leaf).name != SavedValueKey(id)) {
      continue;  // No gradient reads it.
    }
    auto& bound = data->forward.node(id).type == GraphType::kEdge ? features.edge
                                                                  : features.vertex;
    bound[SavedValueKey(id)] = fwd.saved->at(id);
  }
  // Everything the run returned stays alive until the backward runs or the
  // tape is dropped (autograd's saved tensors): for the baselines that
  // includes PyG's gathered [E, w] copies, which the peak-memory
  // experiments count.
  std::shared_ptr<const std::map<int32_t, Tensor>> saved = std::move(fwd.saved);

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

    // Backward temporaries are released as soon as consumed (empty retain).
    const std::vector<int32_t> no_retain;
    RunResult bwd;
    {
      trace::AmbientSpan backward_span("vertex_program/backward", "program");
      RunContext backward_ctx;
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
  // The backward a Seastar training step runs when every input needs a
  // gradient: it reads what the forward plan materialized as leaves.
  const ExecutionPlan forward_plan = BuildExecutionPlan(data_->forward);
  std::vector<int32_t> saved;
  for (int32_t id : SavableValues(data_->forward, data_->backward)) {
    if (forward_plan.materialized[static_cast<size_t>(id)]) {
      saved.push_back(id);
    }
  }
  const GirGraph& backward =
      this->backward(std::vector<bool>(data_->backward.input_grads.size(), true), saved)->graph;
  std::ostringstream os;
  os << "=== forward GIR ===\n" << data_->forward.ToString();
  os << "=== forward plan ===\n" << forward_plan.ToString(data_->forward);
  os << "=== backward GIR ===\n" << backward.ToString();
  os << "=== backward plan ===\n" << BuildExecutionPlan(backward).ToString(backward);
  return os.str();
}

}  // namespace seastar
