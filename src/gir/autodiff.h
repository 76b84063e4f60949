// Automatic differentiation on GIRs (paper §5.2).
//
// Given a forward GIR and the id of its (single) output, BuildBackward
// constructs a *backward GIR*: a fresh program whose inputs are the forward
// program's inputs plus a gradient tensor for the output, and whose outputs
// are the gradients of every forward kInput/kInputTypedSrc node.
//
// Two properties mirror the paper's engine:
//
//  * Gradient accumulation and ordering — nodes are differentiated in
//    reverse topological order, so an operator's gradient is complete (all
//    downstream contributions Added) before it propagates further (§5.2:
//    "we make sure that an operator's all downstream operators are
//    differentiated before itself").
//
//  * Graph-type-aware adjoints — when an E-type operator's input is S- or
//    D-typed, the adjoint "ingests" an edge-wise aggregation of the opposite
//    orientation (§5.2), which is what makes the backward GIR a seastar
//    pattern again (§6.3.4) and hence fusible by the same FSM.
//
// The backward GIR embeds a copy of the forward computation (the
// `forward_copy` map). After a forward run, the copies of the values that
// run materialized and returned are cut off: ReadSavedValues
// (src/gir/passes.h) turns each into an input leaf, SavedValueKey(id), and
// the standard passes drop what only fed it. What the forward kept in
// registers (Seastar's intra-unit edge values) the fused backward kernels
// recompute on the fly, and so does everything on the sharded runtime,
// which returns no forward values.
#ifndef SRC_GIR_AUTODIFF_H_
#define SRC_GIR_AUTODIFF_H_

#include <string>
#include <vector>

#include "src/gir/ir.h"

namespace seastar {

// Reserved feature key under which the output gradient enters the backward
// program.
inline constexpr char kGradInputKey[] = "__grad";

// Feature key under which a backward GIR reads forward node `fwd_id`'s
// saved value (ReadSavedValues, src/gir/passes.h): "__saved<fwd_id>".
inline std::string SavedValueKey(int32_t fwd_id) {
  return "__saved" + std::to_string(fwd_id);
}

struct InputGradInfo {
  int32_t forward_input = -1;      // Forward node id of the kInput[TypedSrc].
  std::string key;                 // Feature key of that input.
  GraphType access = GraphType::kSrc;  // How the forward program read it.
  bool typed = false;              // True for kInputTypedSrc.
  int32_t backward_output = -1;    // Backward node id holding the gradient.
  std::string output_name;         // Name under which it is marked as output.
};

struct BackwardGir {
  GirGraph graph;
  // forward_copy[fwd_id] = backward node id of the recomputed forward value
  // (its saved-value leaf after ReadSavedValues), or -1 once eliminated by
  // a pass.
  std::vector<int32_t> forward_copy;
  std::vector<InputGradInfo> input_grads;
};

// Differentiates `forward` with respect to node `output_id`. Aborts on ops
// without an implemented adjoint (kAggTypeSumThenMax).
BackwardGir BuildBackward(const GirGraph& forward, int32_t output_id);

}  // namespace seastar

#endif  // SRC_GIR_AUTODIFF_H_
