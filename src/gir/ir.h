// The graph-aware intermediate representation (GIR) of the paper (§5.1).
//
// A GIR is a DAG of operations over *per-vertex/per-edge feature vectors*.
// Every value (node output) carries:
//   * a GraphType — S (source-wise), D (destination-wise), E (edge-wise) or
//     P (parameter, shared by all vertices) — inferred with the paper's four
//     rules (§5.1 "Graph type inference");
//   * a feature width (the value's vector length for one vertex/edge; the
//     batched tensor is then [num_vertices, width] or [num_edges, width]).
//
// Aggregation operators (AggSum/AggMax/AggMean, the paper's A-type) reduce
// edge-evaluable values onto one endpoint; their orientation (A:D vs A:S,
// §6.2) is the graph type of their output. The heterogeneous hierarchical
// aggregation of §6.3.5 is the two-level kAggTypeSumThenMax.
#ifndef SRC_GIR_IR_H_
#define SRC_GIR_IR_H_

#include <cstdint>
#include <string>
#include <vector>

namespace seastar {

enum class GraphType : uint8_t {
  kSrc,    // S: one row per source vertex, read via edge's src id.
  kDst,    // D: one row per destination vertex, read via edge's dst id.
  kEdge,   // E: one row per edge, read via edge id.
  kParam,  // P: shared scalar/vector parameter.
};

const char* GraphTypeName(GraphType type);

enum class OpKind : uint8_t {
  // Leaves.
  kInput,          // A feature tensor; `name` is the key, `type` the access side.
  kInputTypedSrc,  // Edge-type-indexed source feature: row (edge_type, src_id)
                   // of a [num_types, N, width] stack (R-GCN's W_r h_u).
  kConst,          // Scalar constant (P-type, width 1).

  // Degree of the key vertex (width 1). type kDst = in-degree, kSrc =
  // out-degree. Used by AggMean's backward.
  kDegree,

  // Elementwise binary. Operand widths are equal, or the narrower width g
  // divides the wider one, g*k: the narrow operand broadcasts group-wise,
  // its element c against the wide one's elements [c*k, (c+1)*k) (the width
  // rule, GroupedBroadcast below). g = 1 is the plain scalar broadcast.
  kAdd,
  kSub,
  kMul,
  kDiv,
  // Grouped row dot: out_c = sum_{j<k} a_{c*k+j} * b_{c*k+j} for c < width,
  // where the inputs have width width*k (one b of width `width` broadcasts
  // group-wise, as in kMul). Width 1 is the full dot product. Backward of a
  // broadcast multiply.
  kDotProduct,
  // 1.0 where a == b else 0.0 (argmax masks for AggMax backward).
  kEqualMask,

  // Elementwise unary.
  kNeg,
  kExp,
  kLog,
  kRelu,
  kLeakyRelu,  // attr scalar = slope.
  kSigmoid,
  kTanh,
  kIdentity,
  // Grouped width sum: out_c = sum_{j<k} a_{c*k+j} for c < width, the input
  // of width width*k (width 1 sums the whole row). Backward of a broadcast
  // add.
  kReduceWidthSum,

  // Unary gradient helpers (binary nodes: [grad, saved_forward_value]).
  kReluGrad,       // inputs: grad, forward *input*.
  kLeakyReluGrad,  // inputs: grad, forward *input*; attr = slope.
  kSigmoidGrad,    // inputs: grad, forward *output*.
  kTanhGrad,       // inputs: grad, forward *output*.

  // A-type aggregations. Output type records the orientation:
  // kDst = aggregate per destination over in-edges (A:D),
  // kSrc = aggregate per source over out-edges (A:S).
  kAggSum,
  kAggMax,
  kAggMean,  // Sum divided by degree.

  // Hierarchical heterogeneous aggregation (§6.3.5): inner Sum over edges of
  // the same type, outer Max over the per-type partial sums.
  kAggTypeSumThenMax,

  // Backward of kAggMax/kAggTypeSumThenMax: routes grad to arg-max
  // contributors. inputs: [grad(agg output), original agg input].
  kAggMaxGrad,

  // Backward of the typed-src input: per-(type, src) aggregation of an
  // edge-evaluable value; output is a typed stack [num_types, N, width].
  kAggTypedToSrc,
};

const char* OpKindName(OpKind kind);

bool IsAggregation(OpKind kind);
bool IsElementwiseBinary(OpKind kind);
bool IsElementwiseUnary(OpKind kind);  // Includes the *Grad binaries (pointwise).
bool IsLeaf(OpKind kind);

// The width rule of elementwise binaries: widths `a` and `b` combine when
// they are equal, or when the narrower g divides the wider g*k (a grouped
// broadcast; g = 1 is the scalar broadcast). Returns k for a broadcast, 1
// for equal widths and 0 when the widths do not combine.
int32_t GroupedBroadcast(int32_t a, int32_t b);

struct Node {
  int32_t id = -1;
  OpKind kind = OpKind::kIdentity;
  GraphType type = GraphType::kEdge;  // Output graph type.
  int32_t width = 1;                  // Output feature width.
  std::vector<int32_t> inputs;        // Node ids.
  float attr = 0.0f;                  // Slope / constant value.
  std::string name;                   // Feature key for kInput*/outputs.
};

// Rule 2/3/4 of §5.1 for non-aggregation ops: P is neutral; equal types pass
// through; any mix of two or more of {S, D, E} yields E.
GraphType InferElementwiseType(const std::vector<GraphType>& input_types);

// A GIR program: nodes in SSA form (a node's inputs always have smaller ids,
// so the node vector is already a topological order), plus designated
// outputs.
class GirGraph {
 public:
  int32_t AddNode(Node node);  // Fills in id; returns it.

  // Content fingerprint (FNV-1a over every node's kind/type/width/attr/
  // inputs/name plus the output list). Two GIRs with equal fingerprints plan
  // and compile identically, which is what the execution-plan cache keys on —
  // identity by content, not by address, so a rebuilt-but-identical program
  // still hits.
  uint64_t Fingerprint() const;

  const Node& node(int32_t id) const { return nodes_[static_cast<size_t>(id)]; }
  Node& mutable_node(int32_t id) { return nodes_[static_cast<size_t>(id)]; }
  int32_t num_nodes() const { return static_cast<int32_t>(nodes_.size()); }
  const std::vector<Node>& nodes() const { return nodes_; }

  void AddOutput(int32_t id, std::string name);
  const std::vector<int32_t>& outputs() const { return outputs_; }
  const std::vector<std::string>& output_names() const { return output_names_; }
  bool IsOutput(int32_t id) const;

  // Consumers of each node (recomputed on demand).
  std::vector<std::vector<int32_t>> BuildConsumerLists() const;

  // Multi-line dump for debugging and golden tests.
  std::string ToString() const;

 private:
  std::vector<Node> nodes_;
  std::vector<int32_t> outputs_;
  std::vector<std::string> output_names_;
};

}  // namespace seastar

#endif  // SRC_GIR_IR_H_
