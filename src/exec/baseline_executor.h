// Whole-graph tensor-centric baseline executors modelling DGL and PyG
// (paper §2.3, §6.3).
//
// Both execute a GIR operator-by-operator, materializing every node's value
// as a full tensor — vertex ops as [N, w], edge ops as [E, w] — and keep the
// value map alive in RunResult.saved (autograd's saved tensors), which is
// the memory behaviour Fig. 11 / Table 4 measure. They differ in kernel
// strategy:
//
//  * kDglLike — DGL 0.4 with minigun kernels: edge-wise operators iterate
//    CSR slots edge-parallel and *binary-search* the vertex-offset array to
//    recover the destination (the O(log N) per-edge cost §6.3 describes);
//    aggregations use atomic accumulation into destination rows; one
//    BinaryReduce fusion is applied — an aggregation whose input is an
//    E-typed binary op with a single consumer skips materializing that
//    operand (DGL's fused kernel for e.g. u_mul_e + sum).
//
//  * kPygLike — PyTorch-Geometric style gather/scatter: every S/D operand of
//    an edge operator is first *gathered* into its own [E, w] tensor (PyG's
//    x_j / x_i message inputs), ops run on materialized edge tensors, and
//    aggregations are scatter-adds over the COO index. No fusion at all;
//    peak memory is proportional to |E| * width.
#ifndef SRC_EXEC_BASELINE_EXECUTOR_H_
#define SRC_EXEC_BASELINE_EXECUTOR_H_

#include "src/exec/executor.h"
#include "src/exec/runtime.h"
#include "src/gir/ir.h"

namespace seastar {

enum class BaselineFlavor { kDglLike, kPygLike };

struct BaselineExecutorOptions {
  BaselineFlavor flavor = BaselineFlavor::kDglLike;
};

class BaselineExecutor : public Executor {
 public:
  explicit BaselineExecutor(BaselineExecutorOptions options = {}) : options_(options) {}

  // Executor interface: full-graph runs delegate straight to Run().
  RunResult Execute(const GirGraph& gir, const GraphView& view, const FeatureMap& features,
                    const RunContext& ctx = {}) const override {
    return Run(gir, view.graph(), features, ctx);
  }
  const char* name() const override {
    return options_.flavor == BaselineFlavor::kDglLike ? "dgl" : "pyg";
  }
  bool saves_intermediates() const override { return true; }
  // `ctx.retain` (optional) lists node ids whose values must survive the
  // run — the tensors autograd saves for backward, returned in
  // RunResult.saved (the saved-tensors memory Fig. 11 measures). When given,
  // every other intermediate is freed as soon as its last consumer has
  // executed, the way a real tensor framework releases temporaries; when
  // null, everything is kept (useful for tests).
  //
  // Under an ambient trace (tracing.h) it records one span per operator
  // kernel with edges traversed, bytes materialized, kernel-launch and
  // allocator watermark deltas — the whole-graph tensor-system counterpart
  // of the Seastar executor's per-unit spans.
  RunResult Run(const GirGraph& gir, const Graph& graph, const FeatureMap& features,
                const RunContext& ctx = {}) const;

  const BaselineExecutorOptions& options() const { return options_; }

 private:
  BaselineExecutorOptions options_;
};

}  // namespace seastar

#endif  // SRC_EXEC_BASELINE_EXECUTOR_H_
