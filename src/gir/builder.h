// The vertex-centric frontend: a C++ analogue of the paper's traced Python
// UDFs (§4, §5.1).
//
// Users combine symbolic `Value`s with ordinary operators; every expression
// appends a node to the underlying GirGraph, with graph types inferred by
// the §5.1 rules as the expression is built — this is the "tracer" of Fig. 5
// realized as an expression-building API instead of operator monkey-patching.
//
// Example — the heart of GAT's forward (compare paper Fig. 3), 8 heads of
// 16 features:
//
//   GirBuilder b;
//   Value eu = b.Src("eu", 8);           // u.eu, one score per head
//   Value ev = b.Dst("ev", 8);           // v.ev
//   Value e  = Exp(LeakyRelu(eu + ev, 0.2f));     // E-type by inference
//   Value s  = AggSum(e);                          // A:D -> D-type
//   Value a  = e / s;                              // E-type again
//   Value out = AggSum(a * b.Src("h", 128));       // head c scales h[16c, 16c+16)
//   b.MarkOutput(out, "h_out");
//
// Binary operands have equal widths, or the narrower width divides the
// wider and broadcasts group-wise (see GroupedBroadcast in ir.h); width 1
// is the scalar broadcast.
#ifndef SRC_GIR_BUILDER_H_
#define SRC_GIR_BUILDER_H_

#include <string>
#include <vector>

#include "src/gir/ir.h"

namespace seastar {

class GirBuilder;

// Which endpoint an aggregation reduces onto.
enum class AggTo : uint8_t {
  kDefault,  // Rule 1: S input -> D, D input -> S, E input -> D (forward).
  kDst,      // A:D — per destination over in-edges.
  kSrc,      // A:S — per source over out-edges.
};

class Value {
 public:
  Value() = default;
  Value(GirBuilder* builder, int32_t id) : builder_(builder), id_(id) {}

  bool defined() const { return builder_ != nullptr; }
  int32_t id() const { return id_; }
  GirBuilder* builder() const { return builder_; }
  GraphType type() const;
  int32_t width() const;

 private:
  GirBuilder* builder_ = nullptr;
  int32_t id_ = -1;
};

class GirBuilder {
 public:
  GirBuilder() = default;

  // ---- Leaves. The same feature key may be accessed from both sides
  // (paper: u.h and v.h read the same tensor 'h'); repeated accesses of the
  // same (key, side) return the same node.
  Value Src(const std::string& key, int32_t width);   // u.<key>  (S-type)
  Value Dst(const std::string& key, int32_t width);   // v.<key>  (D-type)
  Value Edge(const std::string& key, int32_t width);  // e.<key>  (E-type)
  // Edge-type-indexed source feature (R-GCN): row (type(e), u) of a
  // [num_types, N, width] stack registered under `key`.
  Value TypedSrc(const std::string& key, int32_t width);
  Value Const(float value);

  // ---- Elementwise ops (also exposed as free operators below).
  Value Add(Value a, Value b);
  Value Sub(Value a, Value b);
  Value Mul(Value a, Value b);
  Value Div(Value a, Value b);
  Value Neg(Value a);
  Value Exp(Value a);
  Value Log(Value a);
  Value Relu(Value a);
  Value LeakyRelu(Value a, float slope);
  Value Sigmoid(Value a);
  Value Tanh(Value a);
  Value Identity(Value a);

  // ---- Aggregations.
  Value AggSum(Value a, AggTo to = AggTo::kDefault);
  Value AggMax(Value a, AggTo to = AggTo::kDefault);
  Value AggMean(Value a, AggTo to = AggTo::kDefault);
  // Hierarchical hetero aggregation (§6.3.5): inner sum per edge type, outer
  // max across types. A:D only.
  Value AggTypeSumThenMax(Value a);

  void MarkOutput(Value v, const std::string& name);

  const GirGraph& graph() const { return graph_; }
  GirGraph TakeGraph() { return std::move(graph_); }

  // Internal (used by Value accessors and the autodiff engine).
  const Node& node(int32_t id) const { return graph_.node(id); }
  Value RawNode(Node node);  // Adds a fully specified node (autodiff use).

 private:
  Value Binary(OpKind kind, Value a, Value b);
  Value Unary(OpKind kind, Value a, float attr = 0.0f);
  Value Aggregate(OpKind kind, Value a, AggTo to);
  Value CachedLeaf(OpKind kind, GraphType type, const std::string& key, int32_t width);

  GirGraph graph_;
  // Dedup of leaves: (kind, type, key) -> node id.
  std::vector<int32_t> leaf_ids_;
};

// Operator sugar. Both operands must come from the same builder.
Value operator+(Value a, Value b);
Value operator-(Value a, Value b);
Value operator*(Value a, Value b);
Value operator/(Value a, Value b);
Value operator-(Value a);
Value operator+(Value a, float s);
Value operator*(Value a, float s);
Value operator*(float s, Value a);
Value operator/(Value a, float s);

Value Exp(Value a);
Value Log(Value a);
Value Relu(Value a);
Value LeakyRelu(Value a, float slope);
Value Sigmoid(Value a);
Value Tanh(Value a);
Value AggSum(Value a, AggTo to = AggTo::kDefault);
Value AggMax(Value a, AggTo to = AggTo::kDefault);
Value AggMean(Value a, AggTo to = AggTo::kDefault);

}  // namespace seastar

#endif  // SRC_GIR_BUILDER_H_
