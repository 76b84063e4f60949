#include "src/exec/executor.h"

#include <exception>
#include <utility>

#include "src/common/deadline.h"
#include "src/common/flight_recorder.h"
#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/exec/plan_cache.h"

namespace seastar {
namespace {

struct RecoveryCounters {
  metrics::Counter* retries;
  metrics::Counter* recovery_fallbacks;
};

const RecoveryCounters& Counters() {
  static const RecoveryCounters counters = [] {
    metrics::MetricsRegistry& registry = metrics::MetricsRegistry::Get();
    RecoveryCounters c;
    c.retries = registry.GetCounter("seastar_shard_retries_total");
    c.recovery_fallbacks = registry.GetCounter("seastar_shard_recovery_fallbacks_total");
    return c;
  }();
  return counters;
}

}  // namespace

const Graph& GraphView::graph() const {
  SEASTAR_CHECK(graph_ != nullptr) << "GraphView: undefined view";
  return *graph_;
}

ExecutionSession::ExecutionSession(std::shared_ptr<const Executor> executor, GraphView view)
    : executor_(std::move(executor)), view_(std::move(view)) {
  SEASTAR_CHECK(executor_ != nullptr) << "ExecutionSession: null executor";
  SEASTAR_CHECK(view_.defined()) << "ExecutionSession: undefined graph view";
}

const Executor& ExecutionSession::executor() const {
  SEASTAR_CHECK(executor_ != nullptr) << "ExecutionSession: undefined session";
  return *executor_;
}

PlanCache& ExecutionSession::plan_cache() const { return PlanCache::Get(); }

RunResult ExecutionSession::Execute(const GirGraph& gir, const FeatureMap& features,
                                    const RunContext& ctx) const {
  return ExecuteWithRecovery(executor(), view_, gir, features, ctx);
}

RunResult ExecuteWithRecovery(const Executor& executor, const GraphView& view,
                              const GirGraph& gir, const FeatureMap& features,
                              const RunContext& ctx) {
  const Executor* fallback = executor.recovery_fallback();
  if (fallback == nullptr) {
    return executor.Execute(gir, view, features, ctx);
  }
  try {
    return executor.Execute(gir, view, features, ctx);
  } catch (const DeadlineExceeded&) {
    throw;
  } catch (const std::exception& e) {
    Counters().retries->Add(1);
    FlightRecorder::Get().Record("shard", std::string("retry: ") + e.what());
    SEASTAR_LOG(Warning) << "transient " << executor.name()
                         << " failure, retrying once: " << e.what();
  }
  try {
    return executor.Execute(gir, view, features, ctx);
  } catch (const DeadlineExceeded&) {
    throw;
  } catch (const std::exception& e) {
    Counters().recovery_fallbacks->Add(1);
    FlightRecorder::Get().Record("shard", std::string("fallback: ") + e.what());
    SEASTAR_LOG(Warning) << executor.name() << " failed twice, falling back to "
                         << fallback->name() << " on the full graph: " << e.what();
    // The fallback strategy runs whole-graph: hand it a plain view so it
    // cannot trip over the failing shard decomposition.
    return fallback->Execute(gir, GraphView(view.graph()), features, ctx);
  }
}

ExecutionSession MakeSession(std::shared_ptr<const Executor> executor, const Graph& graph) {
  SEASTAR_CHECK(executor != nullptr) << "MakeSession: null executor";
  GraphView view = executor->PrepareView(graph);
  return ExecutionSession(std::move(executor), std::move(view));
}

metrics::Counter& KernelLaunchesTotal() {
  static metrics::Counter* const counter =
      metrics::MetricsRegistry::Get().GetCounter("seastar_exec_kernel_launches_total");
  return *counter;
}

}  // namespace seastar
