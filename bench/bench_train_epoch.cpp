// Steady-state training cost: per-epoch wall time and allocator behaviour
// for GCN/GAT on the synthetic datasets under the Seastar backend.
//
// This is the perf-trajectory bench for ISSUE 3's steady-state work (pool
// allocator, plan cache, parallel pointwise layer): epoch 0 pays warmup
// (pool cold, plans uncompiled), epochs >= kSteadyFirstEpoch should run with
// ~zero fresh mallocs and zero plan-cache misses. Emits a machine-readable
// JSON report (--out=, default BENCH_train_epoch.json) so CI can assert the
// steady-state invariants and the numbers can be tracked across PRs. Each
// epoch also records its kernel_launches (the delta of
// seastar_exec_kernel_launches_total: one per fused unit run), and each run
// its steady_kernel_launches; tools/bench_check.py gates those and
// steady_alloc_requests exactly.
//
// The first dataset point of each model also gets a profiled twin: the same
// loop in pairs of one profiled and one unprofiled epoch, reported as the
// run's profiling_overhead_pct (p50 over the pairs; the first run's is also
// the top-level field), which tools/bench_check.py gates. GAT's twin matters
// most: its epochs carry ~10x the spans of GCN's.
//
// Flags (on top of the shared bench flags --datasets/--epochs/--warmup/
// --scale/--max-feat/--profile):
//   --models=gcn,gat   model filter (default: both)
//   --out=<path>       JSON report path (default: BENCH_train_epoch.json)
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/json.h"
#include "src/common/stopwatch.h"
#include "src/core/executor_factory.h"
#include "src/core/models/gat.h"
#include "src/core/models/gcn.h"
#include "src/core/nn.h"
#include "src/exec/executor.h"
#include "src/exec/plan_cache.h"
#include "src/tensor/allocator.h"
#include "src/tensor/autograd.h"

namespace seastar {
namespace bench {
namespace {

// First epoch counted as steady state (0-based): epoch 0 warms the pool and
// the plan cache, epoch 1 absorbs any second-order effects (e.g. the
// backward graph's first full reuse), epoch 2+ must be steady.
constexpr int kSteadyFirstEpoch = 2;
// Minimum profiled/unprofiled epoch pairs in the profiled twin, so its p50
// is stable even for short --epochs runs.
constexpr int kMinOverheadPairs = 30;

struct EpochStats {
  double wall_ms = 0.0;
  uint64_t alloc_requests = 0;  // TensorAllocator::total_allocations delta.
  uint64_t fresh_mallocs = 0;   // Requests that reached std::malloc.
  uint64_t pool_hits = 0;
  uint64_t plan_misses = 0;  // PlanCache misses (compilations) this epoch.
  // seastar_exec_kernel_launches_total delta: one per fused unit run.
  int64_t kernel_launches = 0;
  float loss = 0.0f;
};

struct RunReport {
  std::string model;
  std::string dataset;
  int64_t num_vertices = 0;
  int64_t num_edges = 0;
  std::vector<EpochStats> epochs;
  double steady_avg_ms = 0.0;
  double steady_fresh_mallocs = 0.0;
  double steady_alloc_requests = 0.0;
  double steady_kernel_launches = 0.0;
  bool has_twin = false;  // Whether profiling_overhead_pct was measured.
  double profiling_overhead_pct = 0.0;
};

using ModelFactory =
    std::function<std::unique_ptr<GnnModel>(const Dataset&, std::shared_ptr<const Executor>)>;

// One timed training step, with allocator and plan-cache deltas.
EpochStats RunEpoch(GnnModel& model, Adam& adam, const Dataset& data, int epoch) {
  TensorAllocator& allocator = TensorAllocator::Get();
  PlanCache& plans = PlanCache::Get();
  const uint64_t requests_before = allocator.total_allocations();
  const uint64_t mallocs_before = allocator.fresh_mallocs();
  const uint64_t hits_before = allocator.pool_hits();
  const uint64_t plan_misses_before = plans.misses();
  const int64_t launches_before = KernelLaunchesTotal().value();
  Stopwatch watch;

  trace::AmbientSpan epoch_span("epoch", "bench");
  epoch_span.Set(trace::Arg::kEpoch, epoch);
  Var logits = model.Forward(/*training=*/true);
  Var loss = ag::NllLoss(ag::LogSoftmax(logits), data.labels, data.train_mask);
  Backward(loss, Tensor::Ones({1}));
  adam.Step();
  adam.ZeroGrad();

  EpochStats stats;
  stats.wall_ms = watch.ElapsedMillis();
  stats.loss = loss.value().at(0);
  stats.alloc_requests = allocator.total_allocations() - requests_before;
  stats.fresh_mallocs = allocator.fresh_mallocs() - mallocs_before;
  stats.pool_hits = allocator.pool_hits() - hits_before;
  stats.plan_misses = plans.misses() - plan_misses_before;
  stats.kernel_launches = KernelLaunchesTotal().value() - launches_before;
  return stats;
}

// Upper median of a non-empty sample.
double P50(std::vector<double> values) {
  std::nth_element(values.begin(), values.begin() + values.size() / 2, values.end());
  return values[values.size() / 2];
}

RunReport RunOne(const std::string& model_name, const ModelFactory& factory,
                 const DatasetSpec& spec, const BenchOptions& options, trace::Tracer* profile) {
  Dataset data = LoadDataset(spec, options);
  std::unique_ptr<GnnModel> model =
      factory(data, std::move(*ExecutorFactory::Create("seastar")));
  std::vector<Var> parameters = model->Parameters();
  Adam adam(parameters, /*lr=*/0.01f);
  trace::ScopedRun run(profile, trace::Intern(spec.name + "/" + model_name), "bench");

  RunReport report;
  report.model = model_name;
  report.dataset = spec.name;
  report.num_vertices = data.spec.num_vertices;
  report.num_edges = data.spec.num_edges;

  const int epochs = options.epochs + options.warmup;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    report.epochs.push_back(RunEpoch(*model, adam, data, epoch));
  }

  int steady = 0;
  for (size_t e = kSteadyFirstEpoch; e < report.epochs.size(); ++e) {
    report.steady_avg_ms += report.epochs[e].wall_ms;
    report.steady_fresh_mallocs += static_cast<double>(report.epochs[e].fresh_mallocs);
    report.steady_alloc_requests += static_cast<double>(report.epochs[e].alloc_requests);
    report.steady_kernel_launches += static_cast<double>(report.epochs[e].kernel_launches);
    ++steady;
  }
  if (steady > 0) {
    report.steady_avg_ms /= steady;
    report.steady_fresh_mallocs /= steady;
    report.steady_alloc_requests /= steady;
    report.steady_kernel_launches /= steady;
  }
  return report;
}

// The profiled twin of one model/dataset point: a fresh model trained in
// steady-state epoch pairs, one epoch profiled and one not, alternating which
// runs first, so host drift lands on both sides alike and each pair gives one
// overhead sample. Each profiled epoch is one run on a run-scoped tracer,
// recorded exactly as --profile= records it. Returns the p50 overhead in
// percent.
double MeasureProfilingOverhead(const ModelFactory& factory, const DatasetSpec& spec,
                                const BenchOptions& options) {
  Dataset data = LoadDataset(spec, options);
  std::unique_ptr<GnnModel> model =
      factory(data, std::move(*ExecutorFactory::Create("seastar")));
  std::vector<Var> parameters = model->Parameters();
  Adam adam(parameters, /*lr=*/0.01f);
  trace::Tracer tracer(trace::TracerConfig{}, trace::Retention::kRun);

  int epoch = 0;
  for (; epoch < kSteadyFirstEpoch; ++epoch) {
    RunEpoch(*model, adam, data, epoch);
  }
  std::vector<double> overhead_pct;
  const int pairs = std::max(options.epochs, kMinOverheadPairs);
  for (int pair = 0; pair < pairs; ++pair) {
    double wall_ms[2];  // [unprofiled, profiled]
    for (int side = 0; side < 2; ++side) {
      const int profiled = (pair + side) % 2;
      trace::ScopedRun run(profiled == 1 ? &tracer : nullptr, "profiled epoch", "bench");
      wall_ms[profiled] = RunEpoch(*model, adam, data, epoch++).wall_ms;
    }
    overhead_pct.push_back(100.0 * (wall_ms[1] / wall_ms[0] - 1.0));
  }
  return P50(std::move(overhead_pct));
}

void WriteReport(const std::string& path, const std::vector<RunReport>& reports,
                 double profiling_overhead_pct) {
  JsonWriter json;
  json.BeginObject();
  json.Field("bench", "train_epoch");
  json.Field("steady_first_epoch", kSteadyFirstEpoch);
  // p50 over the profiled twin's epoch pairs of the profiled epoch's
  // overhead, in percent. Gated by tools/bench_check.py at an absolute
  // ceiling.
  json.FieldDouble("profiling_overhead_pct", profiling_overhead_pct, 2);
  json.Key("runs");
  json.BeginArray();
  for (const RunReport& report : reports) {
    json.BeginObject();
    json.Field("model", report.model);
    json.Field("dataset", report.dataset);
    json.Field("num_vertices", report.num_vertices);
    json.Field("num_edges", report.num_edges);
    json.FieldDouble("steady_avg_ms", report.steady_avg_ms, 3);
    json.FieldDouble("steady_fresh_mallocs", report.steady_fresh_mallocs, 1);
    json.FieldDouble("steady_alloc_requests", report.steady_alloc_requests, 1);
    json.FieldDouble("steady_kernel_launches", report.steady_kernel_launches, 1);
    if (report.has_twin) {
      json.FieldDouble("profiling_overhead_pct", report.profiling_overhead_pct, 2);
    }
    json.Key("epochs");
    json.BeginArray();
    for (size_t e = 0; e < report.epochs.size(); ++e) {
      const EpochStats& stats = report.epochs[e];
      json.BeginObject();
      json.Field("epoch", static_cast<int64_t>(e));
      json.FieldDouble("wall_ms", stats.wall_ms, 3);
      json.Field("alloc_requests", static_cast<uint64_t>(stats.alloc_requests));
      json.Field("fresh_mallocs", static_cast<uint64_t>(stats.fresh_mallocs));
      json.Field("pool_hits", static_cast<uint64_t>(stats.pool_hits));
      json.Field("plan_misses", static_cast<uint64_t>(stats.plan_misses));
      json.Field("kernel_launches", stats.kernel_launches);
      json.FieldDouble("loss", stats.loss, 6);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  if (json.WriteToFile(path)) {
    std::printf("\nreport: %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }
}

int Main(int argc, char** argv) {
  BenchOptions options = ParseBenchOptions(argc, argv);
  const std::string out_path = FlagValue(argc, argv, "out", "BENCH_train_epoch.json");
  const std::string model_filter = FlagValue(argc, argv, "models", "gcn,gat");
  BenchProfile profile(options);

  std::vector<std::pair<std::string, ModelFactory>> models;
  for (const std::string& name : Split(model_filter, ',')) {
    if (name == "gcn") {
      models.emplace_back("GCN", [](const Dataset& data, std::shared_ptr<const Executor> executor) {
        GcnConfig gcn;
        gcn.hidden_dim = 16;
        return std::unique_ptr<GnnModel>(new Gcn(data, gcn, std::move(executor)));
      });
    } else if (name == "gat") {
      models.emplace_back("GAT", [](const Dataset& data, std::shared_ptr<const Executor> executor) {
        GatConfig gat;
        return std::unique_ptr<GnnModel>(new Gat(data, gat, std::move(executor)));
      });
    } else {
      std::fprintf(stderr, "unknown model '%s' (expected gcn/gat)\n", name.c_str());
      return 1;
    }
  }

  std::printf("steady-state per-epoch training cost (Seastar backend)\n");
  std::printf("(scale multiplier %.3g, %d epochs total, steady state = epoch %d+)\n\n",
              options.scale_multiplier, options.epochs + options.warmup, kSteadyFirstEpoch);
  std::printf("%-6s %-12s %10s %10s %12s %14s %14s\n", "model", "dataset", "|V|", "|E|",
              "steady ms", "mallocs/epoch", "requests/epoch");
  PrintHeaderRule(84);

  std::vector<RunReport> reports;
  for (const auto& [model_name, factory] : models) {
    bool twinned = false;
    for (const DatasetSpec& spec : HomogeneousDatasets()) {
      if (!DatasetSelected(options, spec.name)) {
        continue;
      }
      RunReport report = RunOne(model_name, factory, spec, options, profile.sink());
      std::printf("%-6s %-12s %10lld %10lld %12.3f %14.1f %14.1f\n", report.model.c_str(),
                  report.dataset.c_str(), static_cast<long long>(report.num_vertices),
                  static_cast<long long>(report.num_edges), report.steady_avg_ms,
                  report.steady_fresh_mallocs, report.steady_alloc_requests);
      std::fflush(stdout);
      if (!twinned) {
        report.has_twin = twinned = true;
        report.profiling_overhead_pct = MeasureProfilingOverhead(factory, spec, options);
        std::printf("profiling overhead (%s/%s profiled twin): %+.2f%%, p50 over epoch pairs\n",
                    report.model.c_str(), report.dataset.c_str(),
                    report.profiling_overhead_pct);
      }
      reports.push_back(std::move(report));
    }
  }

  WriteReport(out_path, reports, reports.empty() ? 0.0 : reports[0].profiling_overhead_pct);
  WriteMetricsSnapshots(options);
  profile.Finish();
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace seastar

int main(int argc, char** argv) { return seastar::bench::Main(argc, argv); }
