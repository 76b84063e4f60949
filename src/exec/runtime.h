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
  // Values this run materialized, by node id. For the baseline executors
  // this holds *every* intermediate (they are whole-tensor systems); keeping
  // it alive between forward and backward models autograd's saved tensors
  // and is what the peak-memory benchmarks observe. The Seastar executor
  // only records unit-crossing values.
  std::shared_ptr<std::map<int32_t, Tensor>> saved;
};

// Values already known before a run (node id -> value). Used to seed the
// recompute copies inside a backward GIR from the forward pass's saved
// tensors in the baseline executors.
using SeedMap = std::map<int32_t, Tensor>;

// Run-scoped execution context threaded through the executors and
// VertexProgram::Run. Replaces the old raw-pointer tail
// parameters (SeedMap*, retain vector) with one named carrier, so growing
// the execution API means adding a field here instead of another defaulted
// pointer at every call site. Observability is not a field: executors
// record into the caller's ambient trace (src/common/tracing.h).
struct RunContext {
  // Node values already known before the run; seeded nodes are not
  // recomputed (the baseline executors' autograd saved-tensor path). The
  // Seastar executor ignores this: it recomputes inside fused kernels.
  const SeedMap* seed = nullptr;

  // Node ids whose values must survive the run (what autograd retains for
  // backward). When set, baseline executors free every other intermediate as
  // soon as its last consumer has executed; when null everything is kept.
  // Ignored by the Seastar executor, which only materializes unit-crossing
  // values in the first place.
  const std::vector<int32_t>* retain = nullptr;
};

}  // namespace seastar

#endif  // SRC_EXEC_RUNTIME_H_
