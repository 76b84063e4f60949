#include "src/gir/passes.h"

#include <cmath>
#include <map>
#include <tuple>

#include "src/common/logging.h"

namespace seastar {
namespace {

// Rebuilds `graph` keeping only nodes where keep[id], remapping inputs and
// outputs. Nodes must only reference kept nodes.
PassResult Rebuild(const GirGraph& graph, const std::vector<bool>& keep) {
  PassResult result;
  result.remap.assign(static_cast<size_t>(graph.num_nodes()), -1);
  for (const Node& node : graph.nodes()) {
    if (!keep[static_cast<size_t>(node.id)]) {
      continue;
    }
    Node copy = node;
    copy.id = -1;
    for (int32_t& input : copy.inputs) {
      const int32_t mapped = result.remap[static_cast<size_t>(input)];
      SEASTAR_CHECK_GE(mapped, 0) << "kept node references an eliminated node";
      input = mapped;
    }
    result.remap[static_cast<size_t>(node.id)] = result.graph.AddNode(std::move(copy));
  }
  for (size_t i = 0; i < graph.outputs().size(); ++i) {
    const int32_t mapped = result.remap[static_cast<size_t>(graph.outputs()[i])];
    SEASTAR_CHECK_GE(mapped, 0) << "output eliminated by a pass";
    result.graph.AddOutput(mapped, graph.output_names()[i]);
  }
  return result;
}

// Identity remap.
std::vector<int32_t> IdentityRemap(int32_t n) {
  std::vector<int32_t> remap(static_cast<size_t>(n));
  for (int32_t i = 0; i < n; ++i) {
    remap[static_cast<size_t>(i)] = i;
  }
  return remap;
}

}  // namespace

PassResult DeadCodeElimination(const GirGraph& graph) {
  std::vector<bool> live(static_cast<size_t>(graph.num_nodes()), false);
  // Outputs are roots; sweep backwards (inputs have smaller ids than users,
  // so one reverse scan suffices).
  for (int32_t out : graph.outputs()) {
    live[static_cast<size_t>(out)] = true;
  }
  for (int32_t id = graph.num_nodes() - 1; id >= 0; --id) {
    if (!live[static_cast<size_t>(id)]) {
      continue;
    }
    for (int32_t input : graph.node(id).inputs) {
      live[static_cast<size_t>(input)] = true;
    }
  }
  return Rebuild(graph, live);
}

PassResult CommonSubexpressionElimination(const GirGraph& graph) {
  using Key = std::tuple<int, int, int32_t, std::vector<int32_t>, float, std::string>;
  std::map<Key, int32_t> seen;  // key -> new id

  PassResult result;
  result.remap.assign(static_cast<size_t>(graph.num_nodes()), -1);
  for (const Node& node : graph.nodes()) {
    Node copy = node;
    copy.id = -1;
    for (int32_t& input : copy.inputs) {
      input = result.remap[static_cast<size_t>(input)];
      SEASTAR_CHECK_GE(input, 0);
    }
    Key key{static_cast<int>(copy.kind), static_cast<int>(copy.type), copy.width, copy.inputs,
            copy.attr, copy.name};
    auto it = seen.find(key);
    if (it != seen.end()) {
      result.remap[static_cast<size_t>(node.id)] = it->second;
      continue;
    }
    const int32_t new_id = result.graph.AddNode(std::move(copy));
    seen.emplace(std::move(key), new_id);
    result.remap[static_cast<size_t>(node.id)] = new_id;
  }
  // Outputs: dedupe is fine, multiple names may point at the same node.
  for (size_t i = 0; i < graph.outputs().size(); ++i) {
    result.graph.AddOutput(result.remap[static_cast<size_t>(graph.outputs()[i])],
                           graph.output_names()[i]);
  }
  // Drop unreferenced duplicates.
  PassResult dce = DeadCodeElimination(result.graph);
  result.remap = ComposeRemaps(result.remap, dce.remap);
  result.graph = std::move(dce.graph);
  return result;
}

PassResult ConstantFold(const GirGraph& graph) {
  PassResult result;
  result.remap.assign(static_cast<size_t>(graph.num_nodes()), -1);

  const auto is_const = [&](int32_t new_id, float* value) {
    const Node& node = result.graph.node(new_id);
    if (node.kind == OpKind::kConst) {
      *value = node.attr;
      return true;
    }
    return false;
  };

  for (const Node& node : graph.nodes()) {
    Node copy = node;
    copy.id = -1;
    for (int32_t& input : copy.inputs) {
      input = result.remap[static_cast<size_t>(input)];
      SEASTAR_CHECK_GE(input, 0);
    }

    int32_t replacement = -1;
    float ca = 0.0f;
    float cb = 0.0f;
    if (copy.kind == OpKind::kIdentity && copy.type == result.graph.node(copy.inputs[0]).type) {
      // Identity chains collapse only when they do not carry a type coercion.
      replacement = copy.inputs[0];
    } else if (IsElementwiseBinary(copy.kind) && copy.inputs.size() == 2) {
      const bool const_a = is_const(copy.inputs[0], &ca);
      const bool const_b = is_const(copy.inputs[1], &cb);
      if (const_a && const_b) {
        float folded = 0.0f;
        bool ok = true;
        switch (copy.kind) {
          case OpKind::kAdd:
            folded = ca + cb;
            break;
          case OpKind::kSub:
            folded = ca - cb;
            break;
          case OpKind::kMul:
            folded = ca * cb;
            break;
          case OpKind::kDiv:
            folded = ca / cb;
            break;
          default:
            ok = false;
        }
        if (ok) {
          Node folded_node;
          folded_node.kind = OpKind::kConst;
          folded_node.type = GraphType::kParam;
          folded_node.width = 1;
          folded_node.attr = folded;
          replacement = result.graph.AddNode(std::move(folded_node));
        }
      } else if (const_b) {
        // x + 0, x - 0, x * 1, x / 1.
        if ((copy.kind == OpKind::kAdd && cb == 0.0f) ||
            (copy.kind == OpKind::kSub && cb == 0.0f) ||
            (copy.kind == OpKind::kMul && cb == 1.0f) ||
            (copy.kind == OpKind::kDiv && cb == 1.0f)) {
          replacement = copy.inputs[0];
        }
      } else if (const_a) {
        // 0 + x, 1 * x.
        if ((copy.kind == OpKind::kAdd && ca == 0.0f) ||
            (copy.kind == OpKind::kMul && ca == 1.0f)) {
          replacement = copy.inputs[1];
        }
      }
    } else if (IsElementwiseUnary(copy.kind) && copy.inputs.size() == 1 &&
               is_const(copy.inputs[0], &ca)) {
      float folded = 0.0f;
      bool ok = true;
      switch (copy.kind) {
        case OpKind::kNeg:
          folded = -ca;
          break;
        case OpKind::kExp:
          folded = std::exp(ca);
          break;
        case OpKind::kLog:
          folded = std::log(ca);
          break;
        case OpKind::kRelu:
          folded = ca > 0.0f ? ca : 0.0f;
          break;
        case OpKind::kLeakyRelu:
          folded = ca > 0.0f ? ca : copy.attr * ca;
          break;
        default:
          ok = false;
      }
      if (ok) {
        Node folded_node;
        folded_node.kind = OpKind::kConst;
        folded_node.type = GraphType::kParam;
        folded_node.width = 1;
        folded_node.attr = folded;
        replacement = result.graph.AddNode(std::move(folded_node));
      }
    }

    if (replacement >= 0) {
      result.remap[static_cast<size_t>(node.id)] = replacement;
    } else {
      result.remap[static_cast<size_t>(node.id)] = result.graph.AddNode(std::move(copy));
    }
  }
  for (size_t i = 0; i < graph.outputs().size(); ++i) {
    result.graph.AddOutput(result.remap[static_cast<size_t>(graph.outputs()[i])],
                           graph.output_names()[i]);
  }
  PassResult dce = DeadCodeElimination(result.graph);
  result.remap = ComposeRemaps(result.remap, dce.remap);
  result.graph = std::move(dce.graph);
  return result;
}

std::vector<int32_t> ComposeRemaps(const std::vector<int32_t>& first,
                                   const std::vector<int32_t>& second) {
  std::vector<int32_t> composed(first.size(), -1);
  for (size_t i = 0; i < first.size(); ++i) {
    if (first[i] >= 0) {
      composed[i] = second[static_cast<size_t>(first[i])];
    }
  }
  return composed;
}

PassResult RunStandardPasses(const GirGraph& graph) {
  PassResult acc;
  acc.graph = graph;
  acc.remap = IdentityRemap(graph.num_nodes());
  for (int round = 0; round < 4; ++round) {
    const int32_t before = acc.graph.num_nodes();
    PassResult fold = ConstantFold(acc.graph);
    acc.remap = ComposeRemaps(acc.remap, fold.remap);
    PassResult cse = CommonSubexpressionElimination(fold.graph);
    acc.remap = ComposeRemaps(acc.remap, cse.remap);
    PassResult dce = DeadCodeElimination(cse.graph);
    acc.remap = ComposeRemaps(acc.remap, dce.remap);
    acc.graph = std::move(dce.graph);
    if (acc.graph.num_nodes() == before) {
      break;
    }
  }
  return acc;
}

void OptimizeBackward(BackwardGir* backward) {
  PassResult passes = RunStandardPasses(backward->graph);
  backward->graph = std::move(passes.graph);
  for (int32_t& copy : backward->forward_copy) {
    if (copy >= 0) {
      copy = passes.remap[static_cast<size_t>(copy)];
    }
  }
  for (InputGradInfo& info : backward->input_grads) {
    info.backward_output = passes.remap[static_cast<size_t>(info.backward_output)];
    SEASTAR_CHECK_GE(info.backward_output, 0);
  }
}

BackwardGir SelectInputGrads(const BackwardGir& backward, const std::vector<bool>& keep) {
  SEASTAR_CHECK_EQ(keep.size(), backward.input_grads.size());
  BackwardGir selected;
  for (const Node& node : backward.graph.nodes()) {
    Node copy = node;
    copy.id = -1;
    selected.graph.AddNode(std::move(copy));
  }
  for (size_t i = 0; i < keep.size(); ++i) {
    if (keep[i]) {
      const InputGradInfo& info = backward.input_grads[i];
      selected.graph.AddOutput(info.backward_output, info.output_name);
      selected.input_grads.push_back(info);
    }
  }
  selected.forward_copy = backward.forward_copy;
  OptimizeBackward(&selected);
  return selected;
}

BackwardGir ReadSavedValues(const BackwardGir& backward, const std::vector<int32_t>& saved) {
  BackwardGir result = backward;
  for (int32_t fwd_id : saved) {
    const int32_t id = backward.forward_copy.at(static_cast<size_t>(fwd_id));
    SEASTAR_CHECK_GE(id, 0) << "forward value %" << fwd_id << " has no copy in the backward";
    Node& node = result.graph.mutable_node(id);
    SEASTAR_CHECK(!IsLeaf(node.kind) && node.type != GraphType::kParam)
        << "forward value %" << fwd_id << " is a leaf or a scalar";
    node.kind = OpKind::kInput;
    node.inputs.clear();
    node.attr = 0.0f;
    node.name = SavedValueKey(fwd_id);
  }
  OptimizeBackward(&result);
  return result;
}

}  // namespace seastar
