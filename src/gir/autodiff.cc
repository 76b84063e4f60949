#include "src/gir/autodiff.h"

#include <algorithm>

#include "src/common/logging.h"

namespace seastar {
namespace {

// Helper that appends nodes to the backward graph with inferred types.
class BackwardBuilder {
 public:
  explicit BackwardBuilder(GirGraph* graph) : graph_(graph) {}

  int32_t Binary(OpKind kind, int32_t a, int32_t b) {
    const Node& na = graph_->node(a);
    const Node& nb = graph_->node(b);
    SEASTAR_CHECK(GroupedBroadcast(na.width, nb.width) > 0)
        << OpKindName(kind) << ": incompatible widths " << na.width << " vs " << nb.width;
    return Elementwise(kind, {a, b}, std::max(na.width, nb.width));
  }

  // Grouped row dot of two width-w rows into `width` groups of w / width.
  int32_t DotProduct(int32_t a, int32_t b, int32_t width) {
    const int32_t w = graph_->node(a).width;
    SEASTAR_CHECK(w % width == 0 && graph_->node(b).width == w)
        << "DotProduct: widths " << w << " and " << graph_->node(b).width << " into " << width;
    return Elementwise(OpKind::kDotProduct, {a, b}, width);
  }

  // Grouped width sum of `a` into `width` groups.
  int32_t ReduceWidthSum(int32_t a, int32_t width) {
    SEASTAR_CHECK_EQ(graph_->node(a).width % width, 0)
        << "ReduceWidthSum: width " << graph_->node(a).width << " into " << width;
    return Elementwise(OpKind::kReduceWidthSum, {a}, width);
  }

  int32_t Unary(OpKind kind, int32_t a, float attr = 0.0f) {
    return Elementwise(kind, {a}, graph_->node(a).width, attr);
  }

  int32_t UnaryGrad(OpKind kind, int32_t grad, int32_t saved, float attr = 0.0f) {
    const Node& ng = graph_->node(grad);
    const Node& ns = graph_->node(saved);
    SEASTAR_CHECK_EQ(ng.width, ns.width);
    Node node;
    node.kind = kind;
    node.type = InferElementwiseType({ng.type, ns.type});
    node.width = ng.width;
    node.inputs = {grad, saved};
    node.attr = attr;
    return graph_->AddNode(std::move(node));
  }

  // An elementwise node of the given width; its type by the §5.1 rules.
  int32_t Elementwise(OpKind kind, std::vector<int32_t> inputs, int32_t width,
                      float attr = 0.0f) {
    std::vector<GraphType> types;
    for (int32_t input : inputs) {
      types.push_back(graph_->node(input).type);
    }
    Node node;
    node.kind = kind;
    node.type = InferElementwiseType(types);
    node.width = width;
    node.inputs = std::move(inputs);
    node.attr = attr;
    return graph_->AddNode(std::move(node));
  }

  int32_t IdentityAs(int32_t a, GraphType forced_type) {
    const Node& na = graph_->node(a);
    Node node;
    node.kind = OpKind::kIdentity;
    node.type = forced_type;
    node.width = na.width;
    node.inputs = {a};
    return graph_->AddNode(std::move(node));
  }

  int32_t Aggregate(OpKind kind, int32_t a, GraphType orientation) {
    SEASTAR_CHECK(orientation == GraphType::kSrc || orientation == GraphType::kDst);
    Node node;
    node.kind = kind;
    node.type = orientation;
    node.width = graph_->node(a).width;
    node.inputs = {a};
    return graph_->AddNode(std::move(node));
  }

  int32_t Degree(GraphType orientation) {
    Node node;
    node.kind = OpKind::kDegree;
    node.type = orientation;
    node.width = 1;
    return graph_->AddNode(std::move(node));
  }

  GirGraph* graph_;
};

}  // namespace

BackwardGir BuildBackward(const GirGraph& forward, int32_t output_id) {
  SEASTAR_CHECK_GE(output_id, 0);
  SEASTAR_CHECK_LT(output_id, forward.num_nodes());

  BackwardGir result;
  BackwardBuilder b(&result.graph);

  // 1. Embed a copy of the forward computation (recompute subgraph). Node
  //    ids are preserved because we copy in order into an empty graph.
  result.forward_copy.resize(static_cast<size_t>(forward.num_nodes()));
  for (const Node& node : forward.nodes()) {
    Node copy = node;
    copy.id = -1;  // Reassigned by AddNode.
    const int32_t new_id = result.graph.AddNode(std::move(copy));
    result.forward_copy[static_cast<size_t>(node.id)] = new_id;
  }
  const auto fwd = [&](int32_t fwd_id) { return result.forward_copy[static_cast<size_t>(fwd_id)]; };

  // 2. The output gradient enters as a fresh input with the output's type.
  const Node& out_node = forward.node(output_id);
  int32_t grad_in;
  {
    Node node;
    node.kind = OpKind::kInput;
    node.type = out_node.type;
    node.width = out_node.width;
    node.name = kGradInputKey;
    grad_in = result.graph.AddNode(std::move(node));
  }

  // grads[fwd_id] = backward node id of the accumulated gradient (or -1).
  std::vector<int32_t> grads(static_cast<size_t>(forward.num_nodes()), -1);
  grads[static_cast<size_t>(output_id)] = grad_in;

  // Propagates `g` into forward node `input_id`, inserting the
  // graph-type-correcting aggregation / identity when needed (§5.2).
  const auto propagate = [&](int32_t input_id, int32_t g) {
    const Node& in_node = forward.node(input_id);
    if (in_node.type == GraphType::kParam || in_node.kind == OpKind::kConst ||
        in_node.kind == OpKind::kDegree) {
      return;  // No gradients for parameters/constants.
    }
    const GraphType g_type = result.graph.node(g).type;
    int32_t adjusted = g;
    if (in_node.kind == OpKind::kInputTypedSrc) {
      adjusted = b.Aggregate(OpKind::kAggTypedToSrc, g, GraphType::kSrc);
    } else if (in_node.type == GraphType::kSrc && g_type != GraphType::kSrc) {
      adjusted = b.Aggregate(OpKind::kAggSum, g, GraphType::kSrc);
    } else if (in_node.type == GraphType::kDst && g_type != GraphType::kDst) {
      adjusted = b.Aggregate(OpKind::kAggSum, g, GraphType::kDst);
    } else if (in_node.type == GraphType::kEdge && g_type != GraphType::kEdge) {
      // Per-edge gradient expressed through endpoint values; coerce to E so
      // materialization produces an edge tensor.
      adjusted = b.IdentityAs(g, GraphType::kEdge);
    }
    // A broadcast in forward (width g -> width g*k) needs the grouped width
    // reduction.
    if (in_node.width < result.graph.node(adjusted).width) {
      adjusted = b.ReduceWidthSum(adjusted, in_node.width);
    }
    int32_t& slot = grads[static_cast<size_t>(input_id)];
    slot = (slot < 0) ? adjusted : b.Binary(OpKind::kAdd, slot, adjusted);
  };

  // 3. Reverse topological sweep. Ids are topological, so descending id
  //    order guarantees every consumer contributed its gradient already.
  for (int32_t id = forward.num_nodes() - 1; id >= 0; --id) {
    const Node& node = forward.node(id);
    const int32_t g = grads[static_cast<size_t>(id)];
    if (g < 0 || IsLeaf(node.kind)) {
      continue;
    }
    switch (node.kind) {
      case OpKind::kAdd:
        propagate(node.inputs[0], g);
        propagate(node.inputs[1], g);
        break;
      case OpKind::kSub:
        propagate(node.inputs[0], g);
        propagate(node.inputs[1], b.Unary(OpKind::kNeg, g));
        break;
      case OpKind::kMul: {
        const int32_t a = node.inputs[0];
        const int32_t c = node.inputs[1];
        // A (grouped) broadcast operand's adjoint sums its group's products.
        const int32_t wa = forward.node(a).width;
        const int32_t wc = forward.node(c).width;
        propagate(a, wa < node.width ? b.DotProduct(g, fwd(c), wa)
                                     : b.Binary(OpKind::kMul, g, fwd(c)));
        propagate(c, wc < node.width ? b.DotProduct(g, fwd(a), wc)
                                     : b.Binary(OpKind::kMul, g, fwd(a)));
        break;
      }
      case OpKind::kDiv: {
        const int32_t a = node.inputs[0];
        const int32_t c = node.inputs[1];
        // da = g / c ; dc = -(g * a) / c^2.
        propagate(a, b.Binary(OpKind::kDiv, g, fwd(c)));
        const int32_t ga = b.Binary(OpKind::kMul, g, fwd(a));
        const int32_t c2 = b.Binary(OpKind::kMul, fwd(c), fwd(c));
        propagate(c, b.Unary(OpKind::kNeg, b.Binary(OpKind::kDiv, ga, c2)));
        break;
      }
      case OpKind::kDotProduct: {
        // out_c = sum_j a_{ck+j} b_{ck+j}; da = g * b, db = g * a, g
        // broadcast group-wise.
        propagate(node.inputs[0], b.Binary(OpKind::kMul, g, fwd(node.inputs[1])));
        propagate(node.inputs[1], b.Binary(OpKind::kMul, g, fwd(node.inputs[0])));
        break;
      }
      case OpKind::kNeg:
        propagate(node.inputs[0], b.Unary(OpKind::kNeg, g));
        break;
      case OpKind::kExp:
        propagate(node.inputs[0], b.Binary(OpKind::kMul, g, fwd(id)));
        break;
      case OpKind::kLog:
        propagate(node.inputs[0], b.Binary(OpKind::kDiv, g, fwd(node.inputs[0])));
        break;
      case OpKind::kRelu:
        propagate(node.inputs[0], b.UnaryGrad(OpKind::kReluGrad, g, fwd(node.inputs[0])));
        break;
      case OpKind::kLeakyRelu:
        propagate(node.inputs[0],
                  b.UnaryGrad(OpKind::kLeakyReluGrad, g, fwd(node.inputs[0]), node.attr));
        break;
      case OpKind::kSigmoid:
        propagate(node.inputs[0], b.UnaryGrad(OpKind::kSigmoidGrad, g, fwd(id)));
        break;
      case OpKind::kTanh:
        propagate(node.inputs[0], b.UnaryGrad(OpKind::kTanhGrad, g, fwd(id)));
        break;
      case OpKind::kIdentity:
        propagate(node.inputs[0], g);
        break;
      case OpKind::kReduceWidthSum:
        // Forward reduced width g*k -> g; backward broadcasts g back, which
        // the elementwise width-broadcast rules already handle.
        propagate(node.inputs[0], g);
        break;
      case OpKind::kAggSum:
      case OpKind::kAggMean:
      case OpKind::kAggMax: {
        // The per-edge gradient of the aggregated value: 1 for sum, 1/deg
        // for mean, the arg-max mask for max.
        int32_t per_edge = g;
        if (node.kind == OpKind::kAggMean) {
          per_edge = b.Binary(OpKind::kDiv, g, b.Degree(node.type));
        } else if (node.kind == OpKind::kAggMax) {
          const int32_t mask = b.Binary(OpKind::kEqualMask, fwd(node.inputs[0]), fwd(id));
          per_edge = b.Binary(OpKind::kMul, g, mask);
        }
        const GraphType in_type = forward.node(node.inputs[0]).type;
        if (in_type == node.type) {
          // Key-side input: every incident edge contributed the *same* input
          // value, so the adjoint sums the per-edge gradient over those
          // edges (a degree multiplication for sum). propagate() would pass
          // the D-typed gradient through unchanged otherwise.
          per_edge = b.Aggregate(OpKind::kAggSum, per_edge, node.type);
        }
        // For S/E/opposite-side inputs, propagate() inserts the
        // orientation-flipping aggregation / identity as needed (§5.2).
        propagate(node.inputs[0], per_edge);
        break;
      }
      case OpKind::kEqualMask:
        // Piecewise-constant: zero gradient to both inputs.
        break;
      case OpKind::kAggTypeSumThenMax:
      case OpKind::kAggMaxGrad:
      case OpKind::kAggTypedToSrc:
        SEASTAR_LOG(Fatal) << "no adjoint implemented for " << OpKindName(node.kind);
        break;
      default:
        SEASTAR_LOG(Fatal) << "unhandled op in autodiff: " << OpKindName(node.kind);
    }
  }

  // 4. Mark gradients of forward inputs as backward outputs.
  for (const Node& node : forward.nodes()) {
    if (node.kind != OpKind::kInput && node.kind != OpKind::kInputTypedSrc) {
      continue;
    }
    const int32_t g = grads[static_cast<size_t>(node.id)];
    if (g < 0) {
      continue;  // Input does not influence the output.
    }
    InputGradInfo info;
    info.forward_input = node.id;
    info.key = node.name;
    info.access = node.type;
    info.typed = node.kind == OpKind::kInputTypedSrc;
    info.backward_output = g;
    info.output_name =
        std::string("grad:") + GraphTypeName(node.type) + (info.typed ? "T" : "") + ":" + node.name;
    result.graph.AddOutput(g, info.output_name);
    result.input_grads.push_back(std::move(info));
  }
  return result;
}

}  // namespace seastar
