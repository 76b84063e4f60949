#include "src/gir/builder.h"

#include <algorithm>

#include "src/common/logging.h"

namespace seastar {

GraphType Value::type() const {
  SEASTAR_CHECK(defined());
  return builder_->node(id_).type;
}

int32_t Value::width() const {
  SEASTAR_CHECK(defined());
  return builder_->node(id_).width;
}

Value GirBuilder::CachedLeaf(OpKind kind, GraphType type, const std::string& key, int32_t width) {
  SEASTAR_CHECK_GT(width, 0);
  for (int32_t id : leaf_ids_) {
    const Node& node = graph_.node(id);
    if (node.kind == kind && node.type == type && node.name == key) {
      SEASTAR_CHECK_EQ(node.width, width)
          << "feature '" << key << "' re-declared with a different width";
      return Value(this, id);
    }
  }
  Node node;
  node.kind = kind;
  node.type = type;
  node.width = width;
  node.name = key;
  int32_t id = graph_.AddNode(std::move(node));
  leaf_ids_.push_back(id);
  return Value(this, id);
}

Value GirBuilder::Src(const std::string& key, int32_t width) {
  return CachedLeaf(OpKind::kInput, GraphType::kSrc, key, width);
}

Value GirBuilder::Dst(const std::string& key, int32_t width) {
  return CachedLeaf(OpKind::kInput, GraphType::kDst, key, width);
}

Value GirBuilder::Edge(const std::string& key, int32_t width) {
  return CachedLeaf(OpKind::kInput, GraphType::kEdge, key, width);
}

Value GirBuilder::TypedSrc(const std::string& key, int32_t width) {
  // Typed source features depend on the *edge's* type as well as its source
  // vertex, so they are only evaluable per edge: E-typed, not S-typed.
  return CachedLeaf(OpKind::kInputTypedSrc, GraphType::kEdge, key, width);
}

Value GirBuilder::Const(float value) {
  Node node;
  node.kind = OpKind::kConst;
  node.type = GraphType::kParam;
  node.width = 1;
  node.attr = value;
  return Value(this, graph_.AddNode(std::move(node)));
}

Value GirBuilder::Binary(OpKind kind, Value a, Value b) {
  SEASTAR_CHECK(a.defined() && b.defined());
  SEASTAR_CHECK(a.builder() == this && b.builder() == this)
      << "operands come from different builders";
  const Node& na = graph_.node(a.id());
  const Node& nb = graph_.node(b.id());
  SEASTAR_CHECK(GroupedBroadcast(na.width, nb.width) > 0)
      << OpKindName(kind) << ": incompatible widths " << na.width << " vs " << nb.width
      << " (the narrower width must divide the wider)";
  Node node;
  node.kind = kind;
  node.type = InferElementwiseType({na.type, nb.type});
  node.width = std::max(na.width, nb.width);
  node.inputs = {a.id(), b.id()};
  return Value(this, graph_.AddNode(std::move(node)));
}

Value GirBuilder::Unary(OpKind kind, Value a, float attr) {
  SEASTAR_CHECK(a.defined());
  SEASTAR_CHECK(a.builder() == this);
  const Node& na = graph_.node(a.id());
  Node node;
  node.kind = kind;
  node.type = na.type;  // Rule 2.
  node.width = na.width;
  node.inputs = {a.id()};
  node.attr = attr;
  return Value(this, graph_.AddNode(std::move(node)));
}

Value GirBuilder::Aggregate(OpKind kind, Value a, AggTo to) {
  SEASTAR_CHECK(a.defined());
  SEASTAR_CHECK(a.builder() == this);
  const Node& na = graph_.node(a.id());
  SEASTAR_CHECK(na.type != GraphType::kParam) << "cannot aggregate a parameter";
  GraphType out_type = GraphType::kDst;
  switch (to) {
    case AggTo::kDst:
      out_type = GraphType::kDst;
      break;
    case AggTo::kSrc:
      out_type = GraphType::kSrc;
      break;
    case AggTo::kDefault:
      // Rule 1: S -> D, D -> S; E defaults to D in the forward direction.
      out_type = na.type == GraphType::kSrc
                     ? GraphType::kDst
                     : (na.type == GraphType::kDst ? GraphType::kSrc : GraphType::kDst);
      break;
  }
  Node node;
  node.kind = kind;
  node.type = out_type;
  node.width = na.width;
  node.inputs = {a.id()};
  return Value(this, graph_.AddNode(std::move(node)));
}

Value GirBuilder::Add(Value a, Value b) { return Binary(OpKind::kAdd, a, b); }
Value GirBuilder::Sub(Value a, Value b) { return Binary(OpKind::kSub, a, b); }
Value GirBuilder::Mul(Value a, Value b) { return Binary(OpKind::kMul, a, b); }
Value GirBuilder::Div(Value a, Value b) { return Binary(OpKind::kDiv, a, b); }
Value GirBuilder::Neg(Value a) { return Unary(OpKind::kNeg, a); }
Value GirBuilder::Exp(Value a) { return Unary(OpKind::kExp, a); }
Value GirBuilder::Log(Value a) { return Unary(OpKind::kLog, a); }
Value GirBuilder::Relu(Value a) { return Unary(OpKind::kRelu, a); }
Value GirBuilder::LeakyRelu(Value a, float slope) {
  return Unary(OpKind::kLeakyRelu, a, slope);
}
Value GirBuilder::Sigmoid(Value a) { return Unary(OpKind::kSigmoid, a); }
Value GirBuilder::Tanh(Value a) { return Unary(OpKind::kTanh, a); }
Value GirBuilder::Identity(Value a) { return Unary(OpKind::kIdentity, a); }

Value GirBuilder::AggSum(Value a, AggTo to) { return Aggregate(OpKind::kAggSum, a, to); }
Value GirBuilder::AggMax(Value a, AggTo to) { return Aggregate(OpKind::kAggMax, a, to); }
Value GirBuilder::AggMean(Value a, AggTo to) { return Aggregate(OpKind::kAggMean, a, to); }
Value GirBuilder::AggTypeSumThenMax(Value a) {
  return Aggregate(OpKind::kAggTypeSumThenMax, a, AggTo::kDst);
}

void GirBuilder::MarkOutput(Value v, const std::string& name) {
  SEASTAR_CHECK(v.defined());
  SEASTAR_CHECK(v.builder() == this);
  graph_.AddOutput(v.id(), name);
}

Value GirBuilder::RawNode(Node node) { return Value(this, graph_.AddNode(std::move(node))); }

// ---- Free operators -----------------------------------------------------------------------------

namespace {
GirBuilder* BuilderOf(Value a) {
  SEASTAR_CHECK(a.defined());
  return a.builder();
}
}  // namespace

Value operator+(Value a, Value b) { return BuilderOf(a)->Add(a, b); }
Value operator-(Value a, Value b) { return BuilderOf(a)->Sub(a, b); }
Value operator*(Value a, Value b) { return BuilderOf(a)->Mul(a, b); }
Value operator/(Value a, Value b) { return BuilderOf(a)->Div(a, b); }
Value operator-(Value a) { return BuilderOf(a)->Neg(a); }
Value operator+(Value a, float s) { return BuilderOf(a)->Add(a, BuilderOf(a)->Const(s)); }
Value operator*(Value a, float s) { return BuilderOf(a)->Mul(a, BuilderOf(a)->Const(s)); }
Value operator*(float s, Value a) { return a * s; }
Value operator/(Value a, float s) { return BuilderOf(a)->Div(a, BuilderOf(a)->Const(s)); }

Value Exp(Value a) { return BuilderOf(a)->Exp(a); }
Value Log(Value a) { return BuilderOf(a)->Log(a); }
Value Relu(Value a) { return BuilderOf(a)->Relu(a); }
Value LeakyRelu(Value a, float slope) { return BuilderOf(a)->LeakyRelu(a, slope); }
Value Sigmoid(Value a) { return BuilderOf(a)->Sigmoid(a); }
Value Tanh(Value a) { return BuilderOf(a)->Tanh(a); }
Value AggSum(Value a, AggTo to) { return BuilderOf(a)->AggSum(a, to); }
Value AggMax(Value a, AggTo to) { return BuilderOf(a)->AggMax(a, to); }
Value AggMean(Value a, AggTo to) { return BuilderOf(a)->AggMean(a, to); }

}  // namespace seastar
