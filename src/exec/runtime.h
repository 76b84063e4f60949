// Shared runtime types for GIR executors.
#ifndef SRC_EXEC_RUNTIME_H_
#define SRC_EXEC_RUNTIME_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/graph/graph.h"
#include "src/tensor/tensor.h"

namespace seastar {

// Runtime bindings for a GIR's kInput/kInputTypedSrc leaves.
//
// A vertex feature key (bound to a [num_vertices, width] tensor) may be read
// from either endpoint: an S-typed input reads row src(e), a D-typed input
// reads row dst(e) — both resolve against the same entry here, mirroring the
// paper's v_feature dictionary where u.h and v.h view one tensor.
struct FeatureMap {
  std::map<std::string, Tensor> vertex;  // [N, w]
  std::map<std::string, Tensor> edge;    // [E, w]
  // Edge-type-indexed stacks for kInputTypedSrc: shape [num_types, N, w].
  std::map<std::string, Tensor> typed_vertex;
};

struct RunResult {
  // Program outputs by output name. D/S outputs are [N, w]; E outputs are
  // [num_edges, w]; typed grads are [num_types, N, w].
  std::map<std::string, Tensor> outputs;
  // Values this run materialized and kept, by node id: the outputs plus
  // every value named in RunContext::retain that the run materialized. The
  // baseline executors keep every intermediate when retain is null (they
  // are whole-tensor systems); the sharded runtime keeps none. The autograd
  // bridge hands the retained values to the backward as input leaves.
  std::shared_ptr<std::map<int32_t, Tensor>> saved;
};

// Run-scoped execution context threaded through the executors and
// VertexProgram::Run: one named carrier, so growing the execution API means
// adding a field here instead of another defaulted pointer at every call
// site. Observability is not a field: executors record into the caller's
// ambient trace (src/common/tracing.h).
struct RunContext {
  // Node ids whose values must survive the run (what autograd retains for
  // backward). A retained value the executor materializes is not freed after
  // its last reader and comes back in RunResult.saved; every other
  // intermediate is freed as soon as its last reader has run. When null the
  // baseline executors keep everything; the Seastar executor always frees
  // what no later unit reads.
  const std::vector<int32_t>* retain = nullptr;
};

}  // namespace seastar

#endif  // SRC_EXEC_RUNTIME_H_
