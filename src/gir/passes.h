// Graph-level optimizations on GIRs (paper §6 intro): dead code elimination,
// common sub-expression elimination, and constant folding with algebraic
// simplification. Each pass rebuilds the graph and reports an id remap so
// callers (notably the compiled-program wrapper, which must keep the
// backward GIR's forward_copy and input-grad tables coherent) can track
// nodes across passes.
#ifndef SRC_GIR_PASSES_H_
#define SRC_GIR_PASSES_H_

#include <vector>

#include "src/gir/autodiff.h"
#include "src/gir/ir.h"

namespace seastar {

struct PassResult {
  GirGraph graph;
  // remap[old_id] = new id, or -1 when the node was eliminated.
  std::vector<int32_t> remap;
};

// Removes nodes that do not reach any output.
PassResult DeadCodeElimination(const GirGraph& graph);

// Merges structurally identical nodes (same kind/type/width/attr/name and
// already-merged inputs).
PassResult CommonSubexpressionElimination(const GirGraph& graph);

// Folds operations whose operands are all constants and applies algebraic
// identities (x+0, x*1, x/1, x-0, Identity chains).
PassResult ConstantFold(const GirGraph& graph);

// Composition: remap_ab[x] = b[a[x]] treating -1 as "gone".
std::vector<int32_t> ComposeRemaps(const std::vector<int32_t>& first,
                                   const std::vector<int32_t>& second);

// Runs Fold -> CSE -> DCE until fixpoint (bounded). Returns the cumulative
// remap from the original ids.
PassResult RunStandardPasses(const GirGraph& graph);

// Convenience: runs the standard passes over a backward GIR and rewrites its
// forward_copy / input_grads tables through the remap.
void OptimizeBackward(BackwardGir* backward);

// The backward GIR restricted to the gradients of input_grads[i] with
// keep[i]: the other outputs are dropped, then the standard passes eliminate
// everything only they needed (forward_copy / input_grads follow the remap).
BackwardGir SelectInputGrads(const BackwardGir& backward, const std::vector<bool>& keep);

// The backward GIR reading the forward values `saved` (sorted forward node
// ids, each a non-leaf, non-P node with a forward copy) instead of
// recomputing them: each one's forward-copy node becomes the input leaf
// Input<SavedValueKey(id)> of the same type and width, then the standard
// passes eliminate everything only those copies needed. forward_copy[id]
// then names the leaf, or -1 when no gradient reads the value.
BackwardGir ReadSavedValues(const BackwardGir& backward, const std::vector<int32_t>& saved);

}  // namespace seastar

#endif  // SRC_GIR_PASSES_H_
