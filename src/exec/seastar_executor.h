// The Seastar execution engine: runs a GIR as a sequence of fused execution
// units (paper §5.3, §6.3, Algorithm 1).
//
// Each fused unit is compiled once (compiled_program.h) and launched with
// one block per tile-plan segment — a contiguous range of key positions in
// the degree-sorted CSR (tiling.h):
//
//   for each key batch of the segment (keys whose slots fit one chunk):
//     evaluate loop-invariant (key-side) ops into each key's registers
//     initialize aggregation accumulators
//     for each chunk of the batch's (contiguous) edge slots:
//       evaluate the edge ops over the whole chunk, one dispatch per op
//       fold each key's slots into its accumulators, in slot order
//       (per edge-type run for the typed aggregations of §6.3.5)
//     finalize aggregations; evaluate post-stage vertex ops
//     write materialized rows
//
// Vertex-parallel edge-sequential execution gives the locality-centric
// behaviour of §6.3.2 (destination rows loaded once, aggregation in
// registers, no atomics on accumulators); degree sorting lives in the
// Graph's CSRs; segments go out under the chunked dynamic block dispatch
// (the §6.3.3 ablation of all three disciplines lives in the Fig. 12
// neighbour-access kernels, neighbor_access.h). Only unit-crossing values are
// materialized (materialization planning) — everything else stays in
// registers, which is where the memory savings over the whole-graph tensor
// systems come from.
#ifndef SRC_EXEC_SEASTAR_EXECUTOR_H_
#define SRC_EXEC_SEASTAR_EXECUTOR_H_

#include "src/exec/executor.h"
#include "src/exec/runtime.h"
#include "src/gir/ir.h"

namespace seastar {

struct SeastarExecutorOptions {
  // Off = the no-fusion ablation: one unit per op, all intermediates
  // materialized.
  bool enable_fusion = true;
};

class SeastarExecutor : public Executor {
 public:
  explicit SeastarExecutor(SeastarExecutorOptions options = {}) : options_(options) {}

  // Executor interface: full-graph runs delegate straight to Run().
  RunResult Execute(const GirGraph& gir, const GraphView& view, const FeatureMap& features,
                    const RunContext& ctx = {}) const override {
    return Run(gir, view.graph(), features, ctx);
  }
  const char* name() const override {
    return options_.enable_fusion ? "seastar" : "seastar-nofuse";
  }
  // Executes `gir` over `graph` with `features`. Only unit-crossing values
  // are materialized, and each is freed after the last unit that reads it
  // unless `ctx.retain` names it: then it outlives the run in
  // RunResult.saved (the forward values the backward reads as leaves).
  // Values that stay in registers cannot be retained; the backward
  // recomputes those inside its fused kernels (§6.3.4). Under an ambient
  // trace (tracing.h) it records one span per
  // fused unit with the §6.3 kernel counters (tile plan, dispatch grants,
  // edges traversed, bytes materialized) inside a run span carrying the
  // allocator, pool and plan-cache deltas.
  RunResult Run(const GirGraph& gir, const Graph& graph, const FeatureMap& features,
                const RunContext& ctx = {}) const;

  const SeastarExecutorOptions& options() const { return options_; }

 private:
  SeastarExecutorOptions options_;
};

}  // namespace seastar

#endif  // SRC_EXEC_SEASTAR_EXECUTOR_H_
