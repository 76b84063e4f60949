#include "src/gir/ir.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "src/common/logging.h"

namespace seastar {

const char* GraphTypeName(GraphType type) {
  switch (type) {
    case GraphType::kSrc:
      return "S";
    case GraphType::kDst:
      return "D";
    case GraphType::kEdge:
      return "E";
    case GraphType::kParam:
      return "P";
  }
  return "?";
}

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kInput:
      return "Input";
    case OpKind::kInputTypedSrc:
      return "InputTypedSrc";
    case OpKind::kConst:
      return "Const";
    case OpKind::kDegree:
      return "Degree";
    case OpKind::kDotProduct:
      return "DotProduct";
    case OpKind::kEqualMask:
      return "EqualMask";
    case OpKind::kReduceWidthSum:
      return "ReduceWidthSum";
    case OpKind::kAdd:
      return "Add";
    case OpKind::kSub:
      return "Sub";
    case OpKind::kMul:
      return "Mul";
    case OpKind::kDiv:
      return "Div";
    case OpKind::kNeg:
      return "Neg";
    case OpKind::kExp:
      return "Exp";
    case OpKind::kLog:
      return "Log";
    case OpKind::kRelu:
      return "Relu";
    case OpKind::kLeakyRelu:
      return "LeakyRelu";
    case OpKind::kSigmoid:
      return "Sigmoid";
    case OpKind::kTanh:
      return "Tanh";
    case OpKind::kIdentity:
      return "Identity";
    case OpKind::kReluGrad:
      return "ReluGrad";
    case OpKind::kLeakyReluGrad:
      return "LeakyReluGrad";
    case OpKind::kSigmoidGrad:
      return "SigmoidGrad";
    case OpKind::kTanhGrad:
      return "TanhGrad";
    case OpKind::kAggSum:
      return "AggSum";
    case OpKind::kAggMax:
      return "AggMax";
    case OpKind::kAggMean:
      return "AggMean";
    case OpKind::kAggTypeSumThenMax:
      return "AggTypeSumThenMax";
    case OpKind::kAggMaxGrad:
      return "AggMaxGrad";
    case OpKind::kAggTypedToSrc:
      return "AggTypedToSrc";
  }
  return "?";
}

bool IsAggregation(OpKind kind) {
  switch (kind) {
    case OpKind::kAggSum:
    case OpKind::kAggMax:
    case OpKind::kAggMean:
    case OpKind::kAggTypeSumThenMax:
    case OpKind::kAggTypedToSrc:
      return true;
    default:
      return false;
  }
}

bool IsElementwiseBinary(OpKind kind) {
  switch (kind) {
    case OpKind::kAdd:
    case OpKind::kSub:
    case OpKind::kMul:
    case OpKind::kDiv:
    case OpKind::kDotProduct:
    case OpKind::kEqualMask:
      return true;
    default:
      return false;
  }
}

bool IsElementwiseUnary(OpKind kind) {
  switch (kind) {
    case OpKind::kNeg:
    case OpKind::kExp:
    case OpKind::kLog:
    case OpKind::kRelu:
    case OpKind::kLeakyRelu:
    case OpKind::kSigmoid:
    case OpKind::kTanh:
    case OpKind::kIdentity:
    case OpKind::kReduceWidthSum:
    case OpKind::kReluGrad:
    case OpKind::kLeakyReluGrad:
    case OpKind::kSigmoidGrad:
    case OpKind::kTanhGrad:
    case OpKind::kAggMaxGrad:
      return true;
    default:
      return false;
  }
}

bool IsLeaf(OpKind kind) {
  return kind == OpKind::kInput || kind == OpKind::kInputTypedSrc || kind == OpKind::kConst ||
         kind == OpKind::kDegree;
}

int32_t GroupedBroadcast(int32_t a, int32_t b) {
  const int32_t narrow = std::min(a, b);
  const int32_t wide = std::max(a, b);
  return narrow > 0 && wide % narrow == 0 ? wide / narrow : 0;
}

GraphType InferElementwiseType(const std::vector<GraphType>& input_types) {
  // Rule 4: P does not affect the result. Rule 2: a single graph type passes
  // through. Rule 3: two or more distinct types from {S, D, E} give E.
  bool has_s = false;
  bool has_d = false;
  bool has_e = false;
  for (GraphType t : input_types) {
    has_s = has_s || t == GraphType::kSrc;
    has_d = has_d || t == GraphType::kDst;
    has_e = has_e || t == GraphType::kEdge;
  }
  const int distinct = static_cast<int>(has_s) + static_cast<int>(has_d) + static_cast<int>(has_e);
  if (distinct == 0) {
    return GraphType::kParam;
  }
  if (distinct > 1 || has_e) {
    return GraphType::kEdge;
  }
  return has_s ? GraphType::kSrc : GraphType::kDst;
}

int32_t GirGraph::AddNode(Node node) {
  node.id = static_cast<int32_t>(nodes_.size());
  for (int32_t input : node.inputs) {
    SEASTAR_CHECK_GE(input, 0);
    SEASTAR_CHECK_LT(input, node.id) << "GIR must be built in topological order";
  }
  // The aggregation kernels fold x(i)[c0 + j] into column j: an aggregation
  // has no broadcast form, so its width is its input's.
  if (IsAggregation(node.kind)) {
    SEASTAR_CHECK_EQ(node.inputs.size(), 1u) << OpKindName(node.kind) << " node " << node.id;
    const Node& input = nodes_[static_cast<size_t>(node.inputs[0])];
    SEASTAR_CHECK(node.width == input.width)
        << OpKindName(node.kind) << " node " << node.id << " has width " << node.width
        << " but its input node " << input.id << " has width " << input.width;
  }
  nodes_.push_back(std::move(node));
  return nodes_.back().id;
}

namespace {

// 64-bit FNV-1a. Chosen over std::hash for a stable, well-mixed digest whose
// collisions are vanishingly unlikely for the handful of distinct GIRs a
// process ever builds.
constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void HashBytes(uint64_t* h, const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    *h ^= p[i];
    *h *= kFnvPrime;
  }
}

void HashU32(uint64_t* h, uint32_t v) { HashBytes(h, &v, sizeof(v)); }

void HashString(uint64_t* h, const std::string& s) {
  HashU32(h, static_cast<uint32_t>(s.size()));
  HashBytes(h, s.data(), s.size());
}

}  // namespace

uint64_t GirGraph::Fingerprint() const {
  uint64_t h = kFnvOffset;
  HashU32(&h, static_cast<uint32_t>(nodes_.size()));
  for (const Node& node : nodes_) {
    HashU32(&h, static_cast<uint32_t>(node.kind));
    HashU32(&h, static_cast<uint32_t>(node.type));
    HashU32(&h, static_cast<uint32_t>(node.width));
    // Hash the attr's bit pattern, not its value: -0.0f vs 0.0f compile to
    // different constants and NaN would otherwise never equal itself.
    uint32_t attr_bits = 0;
    std::memcpy(&attr_bits, &node.attr, sizeof(attr_bits));
    HashU32(&h, attr_bits);
    HashU32(&h, static_cast<uint32_t>(node.inputs.size()));
    for (int32_t input : node.inputs) {
      HashU32(&h, static_cast<uint32_t>(input));
    }
    HashString(&h, node.name);
  }
  HashU32(&h, static_cast<uint32_t>(outputs_.size()));
  for (int32_t id : outputs_) {
    HashU32(&h, static_cast<uint32_t>(id));
  }
  for (const std::string& name : output_names_) {
    HashString(&h, name);
  }
  return h;
}

void GirGraph::AddOutput(int32_t id, std::string name) {
  SEASTAR_CHECK_GE(id, 0);
  SEASTAR_CHECK_LT(id, num_nodes());
  outputs_.push_back(id);
  output_names_.push_back(std::move(name));
}

bool GirGraph::IsOutput(int32_t id) const {
  return std::find(outputs_.begin(), outputs_.end(), id) != outputs_.end();
}

std::vector<std::vector<int32_t>> GirGraph::BuildConsumerLists() const {
  std::vector<std::vector<int32_t>> consumers(nodes_.size());
  for (const Node& node : nodes_) {
    for (int32_t input : node.inputs) {
      consumers[static_cast<size_t>(input)].push_back(node.id);
    }
  }
  return consumers;
}

std::string GirGraph::ToString() const {
  std::ostringstream os;
  for (const Node& node : nodes_) {
    os << "%" << node.id << ":" << GraphTypeName(node.type) << "[" << node.width << "] = "
       << OpKindName(node.kind);
    if (!node.name.empty()) {
      os << "<" << node.name << ">";
    }
    os << "(";
    for (size_t i = 0; i < node.inputs.size(); ++i) {
      if (i > 0) {
        os << ", ";
      }
      os << "%" << node.inputs[i];
    }
    os << ")";
    if (node.kind == OpKind::kConst || node.kind == OpKind::kLeakyRelu ||
        node.kind == OpKind::kLeakyReluGrad) {
      os << " attr=" << node.attr;
    }
    if (IsOutput(node.id)) {
      os << "  // output";
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace seastar
