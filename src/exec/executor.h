// The unified execution entry point: every strategy that can run a GIR —
// the fused Seastar executor, the DGL/PyG-style whole-graph baselines,
// and the owner/mirror sharded runtime — implements `Executor`, and every
// caller (models, VertexProgram, the train loop, the serve path, benches,
// examples) reaches them through an `ExecutionSession`.
//
// A free function over a bare Graph would hard-code the whole-graph
// single-address-space assumption, leaving no seam for executors that need
// per-graph prepared state (a shard partition, and later: ego-graph serving
// caches, per-tenant plan budgets). The session makes "which slice of the
// graph am I running on" a first-class value:
//
//   auto executor = ExecutorFactory::Create("sharded:4");            // core/
//   auto session = MakeSession(std::move(*executor), graph);  // partitions once
//   session.Execute(gir, features, ctx);                      // runs per shard
//
// A GraphView is the session's graph binding: the full graph, plus — when
// the executor prepared one — the shard decomposition (shard-local graphs
// with halo vertices). Sessions are cheap values (three pointers); the
// expensive per-graph state lives behind the view's shared_ptr and is built
// once in MakeSession/PrepareView.
#ifndef SRC_EXEC_EXECUTOR_H_
#define SRC_EXEC_EXECUTOR_H_

#include <memory>

#include "src/exec/runtime.h"
#include "src/gir/ir.h"
#include "src/graph/graph.h"
#include "src/graph/partition.h"

namespace seastar {

class PlanCache;
namespace metrics {
class Counter;
}  // namespace metrics

// A graph as an executor sees it: always the full graph (output tensors are
// globally indexed regardless of strategy), optionally decorated with the
// owner/mirror shard decomposition prepared by ShardRuntime::PrepareView.
// Copies share the decomposition.
class GraphView {
 public:
  GraphView() = default;
  explicit GraphView(const Graph& graph) : graph_(&graph) {}
  GraphView(const Graph& graph, std::shared_ptr<const ShardedGraph> sharded)
      : graph_(&graph), sharded_(std::move(sharded)) {}

  bool defined() const { return graph_ != nullptr; }
  const Graph& graph() const;

  // Null for full-graph views.
  const std::shared_ptr<const ShardedGraph>& sharded() const { return sharded_; }

 private:
  const Graph* graph_ = nullptr;
  std::shared_ptr<const ShardedGraph> sharded_;
};

// An execution strategy for GIR programs. Implementations must be safe to
// share across sessions and calls (they hold options, not per-run state).
class Executor {
 public:
  virtual ~Executor() = default;

  // Runs `gir` over the view's graph with `features`, returning globally
  // indexed outputs. `ctx` carries the per-run state (retain) exactly as
  // RunContext documents.
  virtual RunResult Execute(const GirGraph& gir, const GraphView& view,
                            const FeatureMap& features, const RunContext& ctx = {}) const = 0;

  // Builds the per-graph state this executor wants to reuse across runs.
  // The default is a plain full-graph view; the shard runtime overrides it
  // to partition the graph once per session instead of once per run.
  virtual GraphView PrepareView(const Graph& graph) const { return GraphView(graph); }

  // Stable lowercase identifier ("seastar", "dgl", "sharded", ...).
  virtual const char* name() const = 0;

  // True when Execute without a retain set returns every intermediate in
  // RunResult.saved (the whole-graph tensor baselines). The autograd bridge
  // does not read it: every executor hands the backward what it retained.
  // perfbench/harness.cc forwards it through its timing wrapper.
  virtual bool saves_intermediates() const { return false; }

  // Non-null when this executor has a slower-but-safe strategy for the same
  // program after a transient failure: the shard runtime returns its inner
  // whole-graph SeastarExecutor. Executors returning null opt out of the
  // recovery ladder entirely — their failures propagate on the first throw
  // exactly as before (the training health monitor and the serving retry
  // loop own those policies). The pointer must stay valid as long as the
  // executor itself.
  virtual const Executor* recovery_fallback() const { return nullptr; }
};

// Runs `gir` through `executor` under the recovery ladder (docs/INTERNALS.md
// §14). Executors without a recovery_fallback() run exactly as a plain
// Execute call. For the rest: a DeadlineExceeded propagates unchanged (the
// caller's time budget is spent either way, and retrying would double-bill
// it); any other failure retries the same executor once (transient shard
// faults are consumed by the failed attempt, so the retry is bit-identical
// to an uninjected run); a second failure runs the fallback executor over
// the plain full-graph view. Counts seastar_shard_retries_total /
// seastar_shard_recovery_fallbacks_total and emits "shard" flight-recorder
// events, so callers above (train loop, Server) see at most one error for a
// persistent fault and none for a transient one.
RunResult ExecuteWithRecovery(const Executor& executor, const GraphView& view,
                              const GirGraph& gir, const FeatureMap& features,
                              const RunContext& ctx);

// One caller's binding of (executor, graph view). What the old (config,
// graph, features, ctx) parameter tail collapses into: models hold one
// session per bound graph, the serve path one per request graph, and
// VertexProgram::Run takes the session as its single execution parameter.
// Copying a session is two pointer copies; the executor is shared.
class ExecutionSession {
 public:
  ExecutionSession() = default;
  ExecutionSession(std::shared_ptr<const Executor> executor, GraphView view);

  bool defined() const { return executor_ != nullptr && view_.defined(); }
  const Executor& executor() const;
  const std::shared_ptr<const Executor>& executor_ptr() const { return executor_; }
  const GraphView& view() const { return view_; }
  const Graph& graph() const { return view_.graph(); }

  // The plan-cache handle this session's runs compile through. One process
  // cache today; a per-tenant handle later changes this accessor, not the
  // call sites.
  PlanCache& plan_cache() const;

  // Runs through the session's executor. `ctx` carries the retain set for
  // callers that thread it (the autograd bridge).
  RunResult Execute(const GirGraph& gir, const FeatureMap& features,
                    const RunContext& ctx = {}) const;

 private:
  std::shared_ptr<const Executor> executor_;
  GraphView view_;
};

// Binds `executor` to `graph`, running the executor's per-graph preparation
// (for the shard runtime: the partition) exactly once.
ExecutionSession MakeSession(std::shared_ptr<const Executor> executor, const Graph& graph);

// Kernel launches. On a GPU every operator execution is a kernel launch
// with fixed overhead, and the paper's Table 3 contrast (fused/batched R-GCN
// vs per-relation sequential execution) is largely launch-bound. On this CPU
// simulation all strategies execute the same arithmetic, so the wall-clock
// contrast compresses; the launch count preserves the mechanism. The Seastar
// executor counts one launch per fused unit; the baselines one per operator
// kernel, plus PyG's gathers, plus the scatter and reduce passes of a
// type-sum-then-max. Each run counts its own launches in a local, sets that
// exact count as the `kernel_launches` arg of its run span (and of each
// baseline op span), and adds it once to this registry counter,
// seastar_exec_kernel_launches_total (the handle is resolved once per
// process). Concurrent runs therefore never see each other's launches.
metrics::Counter& KernelLaunchesTotal();

}  // namespace seastar

#endif  // SRC_EXEC_EXECUTOR_H_
