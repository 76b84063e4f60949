// VertexProgram: the compiled artifact behind the paper's @Seastar.compile
// decorator (§4-§5), bridged into the tensor autograd tape.
//
// Compile() takes a traced GirBuilder, runs the graph-level optimization
// passes, differentiates the (single) output into a backward GIR, and
// optimizes that too. Run() executes the forward program on a chosen executor
// and registers a custom autograd function whose backward executes the
// backward GIR. The forward run retains the values the backward reads;
// those the executor materialized (the Seastar executor's unit-crossing
// values, every value for the whole-graph baselines) become input leaves of
// the backward and stay alive until it runs, which is what the peak-memory
// experiments observe. The backward recomputes the rest inside its fused
// kernels, and the sharded runtime, which returns no forward values,
// recomputes everything.
//
// Typical use (GAT's attention stage, every head at once: eu/ev hold one
// score per head, h the heads' features side by side, and a * h scales
// each head's `dim` columns by that head's attention — the GIR's grouped
// broadcast):
//
//   GirBuilder b;
//   Value e = Exp(LeakyRelu(b.Src("eu", heads) + b.Dst("ev", heads), 0.2f));
//   Value a = e / AggSum(e);
//   b.MarkOutput(AggSum(a * b.Src("h", heads * dim)), "out");
//   VertexProgram program = VertexProgram::Compile(std::move(b));
//   ...
//   ExecutionSession session = MakeSession(executor, graph);
//   Var out = program.Run({.vertex = {{"eu", eu}, {"ev", ev}, {"h", f}}}, session);
#ifndef SRC_CORE_PROGRAM_H_
#define SRC_CORE_PROGRAM_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/exec/executor.h"
#include "src/gir/autodiff.h"
#include "src/gir/builder.h"
#include "src/tensor/autograd.h"

namespace seastar {

class VertexProgram {
 public:
  struct Inputs {
    std::map<std::string, Var> vertex;        // [N, w]
    std::map<std::string, Var> edge;          // [num_edges, w]
    std::map<std::string, Var> typed_vertex;  // [num_types, N, w]
  };

  // Compiles the builder's program (which must have exactly one output):
  // standard passes + GIR autodiff + backward passes.
  static VertexProgram Compile(GirBuilder&& builder);

  // Executes forward through the session's executor and hooks the backward
  // GIR into the autograd tape. The session's graph (and the view's prepared
  // state) must outlive the tape — i.e. the training step; the backward
  // closure keeps the executor itself alive through its shared_ptr.
  //
  // Every feature the traced program declared must be present in `inputs`
  // with the declared shape ([N, w] vertex, [E, w] edge, [T, N, w] typed);
  // missing or mis-shaped inputs fail with an error naming the input.
  //
  // Under an ambient trace (tracing.h) it records forward/backward program
  // spans around the executors' per-unit / per-op spans; what the forward
  // retains for backward is managed internally by the autograd bridge.
  Var Run(const Inputs& inputs, const ExecutionSession& session) const;

  const GirGraph& forward() const;
  const BackwardGir& backward() const;
  // The backward GIR restricted to the gradients of the inputs with
  // needs_grad[i] (indexed like backward().input_grads): what Run executes
  // when only those inputs require grad. Built once per mask.
  std::shared_ptr<const BackwardGir> backward(const std::vector<bool>& needs_grad) const;
  // That backward reading the forward values `saved` (sorted forward node
  // ids) as Input<__saved<id>> leaves instead of recomputing them
  // (ReadSavedValues): what Run executes after a forward that returned
  // those values. Built once per (mask, saved set); an empty set is
  // backward(needs_grad).
  std::shared_ptr<const BackwardGir> backward(const std::vector<bool>& needs_grad,
                                              const std::vector<int32_t>& saved) const;

  // Human-readable dump of the forward GIR, its Seastar plan, and the
  // backward GIR and plan a Seastar training step runs when every input
  // needs a gradient (the forward's materialized values as leaves).
  std::string DebugString() const;

 private:
  struct Data;
  std::shared_ptr<const Data> data_;
};

}  // namespace seastar

#endif  // SRC_CORE_PROGRAM_H_
