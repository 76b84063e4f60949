// General-purpose training driver: any model × any dataset × any executor
// from the command line, with optional CSV output for scripting sweeps.
//
//   ./seastar_train --model=gcn --dataset=cora --executor=seastar
//   ./seastar_train --model=gcn --dataset=cora --executor=sharded:4
//   ./seastar_train --model=gat --dataset=amz_photo --executor=pyg --epochs=20
//   ./seastar_train --model=rgcn --dataset=aifb --rgcn-mode=dgl-bmm
//   ./seastar_train --model=sage --dataset=pubmed --csv
//
// Flags: --model=gcn|gat|appnp|rgcn|sage|gin|sgc  --dataset=<table-2 name>
//        --executor=seastar|seastar-nofuse|dgl|pyg|sharded[:N]
//        --epochs --warmup --lr
//        --scale --max-feat --hidden --budget-gb --csv
//        --rgcn-mode=seastar|dgl-bmm|pyg-bmm|dgl|pyg  --sage-agg=mean|pool
//        --edges=<file.tsv|file.mtx>  (train on your own graph instead)
//        --profile=<trace.json>  (Chrome trace of the run plus a summary table;
//                                 see docs/INTERNALS.md §17)
//
// Fault tolerance (docs/INTERNALS.md §9):
//        --checkpoint=<path>       checkpoint file (written atomically)
//        --checkpoint-every=<n>    snapshot cadence in epochs (default 10)
//        --resume                  restore from --checkpoint before training
//        --max-retries=<n>         rollback + lr-backoff budget (default 3)
//        --faults=<spec>           arm the fault injector, e.g. "alloc:after=100"
//
// Observability (docs/INTERNALS.md §12):
//        --metrics-out=<path>      metrics-registry JSON snapshot on exit
//        --metrics-text=<path>     same data, Prometheus text exposition
//        --events-out=<path>       flight-recorder event dump on exit
//
// Any other argument exits 1, naming it.
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "src/common/fault.h"
#include "src/common/flight_recorder.h"
#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/common/string_util.h"
#include "src/common/tracing.h"
#include "src/core/executor_factory.h"
#include "src/core/models/appnp.h"
#include "src/core/models/gat.h"
#include "src/core/models/gcn.h"
#include "src/core/models/gin.h"
#include "src/core/models/rgcn.h"
#include "src/core/models/sage.h"
#include "src/core/models/sgc.h"
#include "src/core/train.h"
#include "src/graph/io.h"
#include "src/tensor/ops.h"

namespace seastar {
namespace {

RgcnMode RgcnModeFromString(const std::string& name) {
  if (name == "seastar") {
    return RgcnMode::kSeastar;
  }
  if (name == "dgl-bmm") {
    return RgcnMode::kDglBmm;
  }
  if (name == "pyg-bmm") {
    return RgcnMode::kPygBmm;
  }
  if (name == "dgl") {
    return RgcnMode::kDglSequential;
  }
  if (name == "pyg") {
    return RgcnMode::kPygSequential;
  }
  SEASTAR_LOG(Fatal) << "unknown --rgcn-mode '" << name
                     << "' (seastar|dgl-bmm|pyg-bmm|dgl|pyg)";
  return RgcnMode::kSeastar;
}

// Wraps a user-supplied edge list as a Dataset with synthetic features.
StatusOr<Dataset> DatasetFromEdgeFile(const std::string& path, int64_t feature_dim,
                                      int64_t num_classes) {
  StatusOr<Graph> graph = StartsWith(path, "mm:") || path.ends_with(".mtx")
                              ? LoadMatrixMarket(path)
                              : LoadEdgeListTsv(path);
  if (!graph.has_value()) {
    return graph.status();
  }
  Dataset data;
  data.spec.name = path;
  data.spec.num_vertices = graph->num_vertices();
  data.spec.num_edges = graph->num_edges();
  data.spec.feature_dim = feature_dim;
  data.spec.num_classes = num_classes;
  data.spec.num_relations = graph->num_edge_types();
  data.graph = std::move(*graph);
  Rng rng(7);
  data.features = ops::RandomNormal({data.spec.num_vertices, feature_dim}, 0, 1, rng);
  data.gcn_norm = Tensor({data.spec.num_vertices, 1});
  for (int64_t v = 0; v < data.spec.num_vertices; ++v) {
    data.gcn_norm.at(v, 0) =
        1.0f / std::sqrt(static_cast<float>(
                   std::max<int64_t>(1, data.graph.InDegree(static_cast<int32_t>(v)))));
  }
  data.labels.resize(static_cast<size_t>(data.spec.num_vertices));
  for (int64_t v = 0; v < data.spec.num_vertices; ++v) {
    data.labels[static_cast<size_t>(v)] =
        static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(num_classes)));
    if (rng.NextBernoulli(0.1)) {
      data.train_mask.push_back(static_cast<int32_t>(v));
    }
  }
  if (data.train_mask.empty()) {
    data.train_mask.push_back(0);
  }
  return data;
}

int Run(int argc, char** argv) {
  const std::string unknown = FirstUnknownFlag(
      argc, argv,
      {"model", "dataset", "executor", "edges", "epochs", "warmup", "lr", "scale", "max-feat",
       "hidden", "budget-gb", "csv", "profile", "checkpoint", "checkpoint-every", "resume",
       "max-retries", "faults", "metrics-out", "metrics-text", "events-out", "rgcn-mode",
       "sage-agg"});
  if (!unknown.empty()) {
    std::fprintf(stderr, "unknown flag '%s'\n", unknown.c_str());
    return 1;
  }
  const std::string model_name = FlagValue(argc, argv, "model", "gcn");
  const std::string dataset_name = FlagValue(argc, argv, "dataset", "cora");
  const std::string executor_spec = FlagValue(argc, argv, "executor", "seastar");
  const std::string edge_file = FlagValue(argc, argv, "edges", "");
  const int epochs = static_cast<int>(FlagInt(argc, argv, "epochs", 30));
  const int warmup = static_cast<int>(FlagInt(argc, argv, "warmup", 3));
  const float lr = static_cast<float>(FlagDouble(argc, argv, "lr", 1e-2));
  const double scale = FlagDouble(argc, argv, "scale", 1.0);
  const int64_t max_feat = FlagInt(argc, argv, "max-feat", 256);
  const int64_t hidden = FlagInt(argc, argv, "hidden", 0);  // 0 = model default.
  const double budget_gb = FlagDouble(argc, argv, "budget-gb", 0.0);
  const bool csv = FlagBool(argc, argv, "csv", false);
  const std::string profile_path = FlagValue(argc, argv, "profile", "");
  const std::string checkpoint_path = FlagValue(argc, argv, "checkpoint", "");
  const int64_t checkpoint_every = FlagInt(argc, argv, "checkpoint-every", 10);
  const bool resume = FlagBool(argc, argv, "resume", false);
  const int64_t max_retries = FlagInt(argc, argv, "max-retries", 3);
  const std::string fault_spec = FlagValue(argc, argv, "faults", "");
  const std::string metrics_out = FlagValue(argc, argv, "metrics-out", "");
  const std::string metrics_text = FlagValue(argc, argv, "metrics-text", "");
  const std::string events_out = FlagValue(argc, argv, "events-out", "");

  // A CHECK failure anywhere below dumps the flight-recorder ring and a
  // metrics snapshot to stderr before aborting.
  FlightRecorder::InstallCrashDump();

  if (resume && checkpoint_path.empty()) {
    std::fprintf(stderr, "--resume requires --checkpoint=<path>\n");
    return 1;
  }
  if (checkpoint_every <= 0) {
    std::fprintf(stderr, "--checkpoint-every must be positive (got %lld)\n",
                 static_cast<long long>(checkpoint_every));
    return 1;
  }
  if (max_retries < 0) {
    std::fprintf(stderr, "--max-retries must be non-negative (got %lld)\n",
                 static_cast<long long>(max_retries));
    return 1;
  }
  if (!fault_spec.empty()) {
    std::string fault_error;
    if (!FaultInjector::Get().ConfigureFromSpec(fault_spec, &fault_error)) {
      std::fprintf(stderr, "bad --faults spec: %s\n", fault_error.c_str());
      return 1;
    }
  }
  FaultInjector::Get().ConfigureFromEnv();

  Dataset data;
  if (!edge_file.empty()) {
    StatusOr<Dataset> loaded = DatasetFromEdgeFile(edge_file, max_feat, 8);
    if (!loaded.has_value()) {
      std::fprintf(stderr, "cannot load --edges graph: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    data = *std::move(loaded);
  } else {
    DatasetOptions options;
    options.scale = scale;
    options.max_feature_dim = max_feat;
    options.add_self_loops = model_name != "rgcn";
    StatusOr<Dataset> made = TryMakeDatasetByName(dataset_name, options);
    if (!made.has_value()) {
      std::fprintf(stderr, "%s\n", made.status().ToString().c_str());
      return 1;
    }
    data = *std::move(made);
  }

  StatusOr<std::unique_ptr<Executor>> created = ExecutorFactory::Create(executor_spec);
  if (!created.has_value()) {
    std::fprintf(stderr, "%s\n", created.status().ToString().c_str());
    return 1;
  }
  std::shared_ptr<const Executor> executor = std::move(*created);

  std::unique_ptr<GnnModel> model;
  if (model_name == "gcn") {
    GcnConfig config;
    if (hidden > 0) {
      config.hidden_dim = hidden;
    }
    model = std::make_unique<Gcn>(data, config, executor);
  } else if (model_name == "gat") {
    GatConfig config;
    if (hidden > 0) {
      config.hidden_dim = hidden;
    }
    model = std::make_unique<Gat>(data, config, executor);
  } else if (model_name == "appnp") {
    AppnpConfig config;
    if (hidden > 0) {
      config.hidden_dim = hidden;
    }
    model = std::make_unique<Appnp>(data, config, executor);
  } else if (model_name == "rgcn") {
    RgcnConfig config;
    config.mode = RgcnModeFromString(FlagValue(argc, argv, "rgcn-mode", "seastar"));
    if (hidden > 0) {
      config.hidden_dim = hidden;
    }
    model = std::make_unique<Rgcn>(data, config);
  } else if (model_name == "sage") {
    SageConfig config;
    if (hidden > 0) {
      config.hidden_dim = hidden;
    }
    config.aggregator = FlagValue(argc, argv, "sage-agg", "mean") == "pool"
                            ? SageAggregator::kPool
                            : SageAggregator::kMean;
    model = std::make_unique<Sage>(data, config, executor);
  } else if (model_name == "gin") {
    GinConfig config;
    if (hidden > 0) {
      config.hidden_dim = hidden;
    }
    model = std::make_unique<Gin>(data, config, executor);
  } else if (model_name == "sgc") {
    SgcConfig config;
    model = std::make_unique<Sgc>(data, config, executor);
  } else {
    std::fprintf(stderr, "unknown --model '%s' (gcn|gat|appnp|rgcn|sage|gin|sgc)\n",
                 model_name.c_str());
    return 1;
  }

  TrainConfig train;
  train.epochs = epochs;
  train.warmup_epochs = warmup;
  train.learning_rate = lr;
  train.verbose = !csv;
  train.checkpoint_path = checkpoint_path;
  train.checkpoint_every = checkpoint_path.empty() ? 0 : static_cast<int>(checkpoint_every);
  train.resume = resume;
  train.max_retries = static_cast<int>(max_retries);
  if (budget_gb > 0.0) {
    train.memory_budget_bytes = static_cast<uint64_t>(budget_gb * 1024.0 * 1024.0 * 1024.0);
  }
  std::unique_ptr<trace::Tracer> profile;
  if (!profile_path.empty()) {
    profile = std::make_unique<trace::Tracer>(trace::TracerConfig{}, trace::Retention::kRun);
  }
  TrainResult result;
  {
    const std::string run_name = std::string(model->name()) + "/" + data.spec.name;
    trace::ScopedRun run(profile.get(), trace::Intern(run_name), "train");
    result = TrainNodeClassification(*model, data, train);
  }

  // Dump observability artifacts on both the success and failure paths: a
  // failed run is exactly when the snapshot and event ring matter most.
  metrics::MetricsRegistry& registry = metrics::MetricsRegistry::Get();
  if (!metrics_out.empty() && !registry.WriteJsonFile(metrics_out)) {
    std::fprintf(stderr, "metrics: failed to write %s\n", metrics_out.c_str());
  }
  if (!metrics_text.empty() && !registry.WriteTextFile(metrics_text)) {
    std::fprintf(stderr, "metrics: failed to write %s\n", metrics_text.c_str());
  }
  if (!events_out.empty() && !FlightRecorder::Get().DumpToFile(events_out)) {
    std::fprintf(stderr, "events: failed to write %s\n", events_out.c_str());
  }

  for (const RecoveryEvent& event : result.recovery_events) {
    std::fprintf(stderr, "recovery: epoch %d %s (%s) retry %d -> rollback to epoch %d, lr %g\n",
                 event.epoch, event.kind.c_str(), event.detail.c_str(), event.retry,
                 event.rollback_epoch, event.lr_after);
  }
  if (result.failed) {
    std::fprintf(stderr, "training failed: %s\n", result.error.c_str());
    std::fprintf(stderr, "%s", FlightRecorder::Get().Dump().c_str());
    return 2;
  }

  if (profile != nullptr) {
    if (profile->WriteChromeTraceFile(profile_path)) {
      std::printf("profile: %lld runs -> %s (open in chrome://tracing)\n",
                  static_cast<long long>(profile->stats().retained_run), profile_path.c_str());
    } else {
      std::fprintf(stderr, "profile: failed to write %s\n", profile_path.c_str());
    }
    if (!csv) {
      std::printf("%s", profile->SummaryTable().c_str());
    }
  }

  if (csv) {
    std::printf("model,dataset,backend,epochs,avg_epoch_ms,final_loss,train_acc,peak_mb,oom\n");
    std::printf("%s,%s,%s,%d,%.3f,%.5f,%.4f,%.2f,%d\n", model_name.c_str(),
                data.spec.name.c_str(), executor_spec.c_str(), result.epochs_run,
                result.avg_epoch_ms, result.final_loss, result.train_accuracy,
                static_cast<double>(result.peak_bytes) / (1024.0 * 1024.0),
                result.oom ? 1 : 0);
  } else {
    std::printf("\n%s on %s via %s: %d epochs, %.2f ms/epoch, loss %.4f, acc %.3f, peak %s%s\n",
                model->name(), data.spec.name.c_str(), model->session().executor().name(),
                result.epochs_run, result.avg_epoch_ms, result.final_loss,
                result.train_accuracy, HumanBytes(result.peak_bytes).c_str(),
                result.oom ? " [OOM]" : "");
    if (result.start_epoch > 0) {
      std::printf("resumed at epoch %d from %s\n", result.start_epoch, checkpoint_path.c_str());
    }
    if (result.checkpoints_written > 0) {
      std::printf("checkpoints: %d written to %s\n", result.checkpoints_written,
                  checkpoint_path.c_str());
    }
    if (result.rollbacks > 0) {
      std::printf("recoveries: %d rollback(s), final lr after backoff preserved in checkpoint\n",
                  result.rollbacks);
    }
  }
  return 0;
}

}  // namespace
}  // namespace seastar

int main(int argc, char** argv) { return seastar::Run(argc, argv); }
