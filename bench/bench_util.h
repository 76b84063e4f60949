// Shared plumbing for the table/figure reproduction binaries.
//
// Every bench accepts:
//   --scale=<f>     multiplier on each dataset's default scale (1.0 = the
//                   catalogue's tractable default; use a large value plus
//                   patience to approach the paper's full sizes)
//   --epochs=<n>    timed epochs (paper: 200; default here: 10)
//   --warmup=<n>    discarded warm-up epochs (paper and default: 3)
//   --datasets=a,b  comma-separated subset filter
//   --max-feat=<n>  cap on feature width (0 = uncapped)
//   --metrics-out=<p>  write the process metrics-registry JSON snapshot there
//                      on exit (same format as the serving/training binaries)
//   --metrics-text=<p> same data, Prometheus text exposition
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/string_util.h"
#include "src/common/tracing.h"
#include "src/core/train.h"
#include "src/graph/datasets.h"

namespace seastar {
namespace bench {

struct BenchOptions {
  double scale_multiplier = 1.0;
  int epochs = 10;
  int warmup = 3;
  int64_t max_feature_dim = 128;
  std::vector<std::string> dataset_filter;  // Empty = all.
  // Models the paper's 11 GB GPU, scaled with the dataset (memory use on a
  // graph scaled by s shrinks by roughly s).
  double memory_budget_gb = 11.0;
  // --profile=<path>: record per-unit/per-op spans for every timed run and
  // write a Chrome-trace JSON there (plus a summary table on stdout).
  // Empty = profiling off (the default; keeps timed numbers clean).
  std::string profile_path;
  // --metrics-out= / --metrics-text=: dump the process metrics registry
  // (JSON / Prometheus text) when the bench finishes. Empty = no dump; the
  // registry itself is always on either way.
  std::string metrics_out;
  std::string metrics_text;
};

inline BenchOptions ParseBenchOptions(int argc, char** argv) {
  BenchOptions options;
  options.scale_multiplier = FlagDouble(argc, argv, "scale", 1.0);
  options.epochs = static_cast<int>(FlagInt(argc, argv, "epochs", 4));
  options.warmup = static_cast<int>(FlagInt(argc, argv, "warmup", 1));
  options.max_feature_dim = FlagInt(argc, argv, "max-feat", 128);
  options.memory_budget_gb = FlagDouble(argc, argv, "budget-gb", 11.0);
  const std::string filter = FlagValue(argc, argv, "datasets", "");
  if (!filter.empty()) {
    options.dataset_filter = Split(filter, ',');
  }
  options.profile_path = FlagValue(argc, argv, "profile", "");
  options.metrics_out = FlagValue(argc, argv, "metrics-out", "");
  options.metrics_text = FlagValue(argc, argv, "metrics-text", "");
  return options;
}

// Dumps the process metrics registry to the paths named by --metrics-out /
// --metrics-text (no-op when neither was given). Call once, at bench exit.
inline void WriteMetricsSnapshots(const BenchOptions& options) {
  metrics::MetricsRegistry& registry = metrics::MetricsRegistry::Get();
  if (!options.metrics_out.empty()) {
    if (registry.WriteJsonFile(options.metrics_out)) {
      std::printf("metrics: %s\n", options.metrics_out.c_str());
    } else {
      std::fprintf(stderr, "metrics: failed to write %s\n", options.metrics_out.c_str());
    }
  }
  if (!options.metrics_text.empty()) {
    if (registry.WriteTextFile(options.metrics_text)) {
      std::printf("metrics: %s\n", options.metrics_text.c_str());
    } else {
      std::fprintf(stderr, "metrics: failed to write %s\n", options.metrics_text.c_str());
    }
  }
}

// Owns the bench's run-scoped tracer when --profile= was given. sink() is
// null when profiling is off, so benches can unconditionally wrap each run
// in trace::ScopedRun(profile.sink(), ...) and pay nothing by default.
class BenchProfile {
 public:
  explicit BenchProfile(const BenchOptions& options) : path_(options.profile_path) {
    if (!path_.empty()) {
      tracer_ = std::make_unique<trace::Tracer>(trace::TracerConfig{}, trace::Retention::kRun);
    }
  }

  trace::Tracer* sink() { return tracer_.get(); }

  // Writes the Chrome trace and prints the aggregate summary table. Call
  // once, after the last profiled run.
  void Finish() {
    if (tracer_ == nullptr || tracer_->stats().retained_run == 0) {
      return;
    }
    if (tracer_->WriteChromeTraceFile(path_)) {
      std::printf("\nprofile: %lld runs -> %s (open in chrome://tracing)\n",
                  static_cast<long long>(tracer_->stats().retained_run), path_.c_str());
    } else {
      std::fprintf(stderr, "profile: failed to write %s\n", path_.c_str());
    }
    std::printf("%s", tracer_->SummaryTable().c_str());
  }

 private:
  std::string path_;
  std::unique_ptr<trace::Tracer> tracer_;
};

inline bool DatasetSelected(const BenchOptions& options, const std::string& name) {
  if (options.dataset_filter.empty()) {
    return true;
  }
  for (const std::string& wanted : options.dataset_filter) {
    if (wanted == name) {
      return true;
    }
  }
  return false;
}

// Materializes `spec` at its default scale times the CLI multiplier.
inline Dataset LoadDataset(const DatasetSpec& spec, const BenchOptions& options) {
  DatasetOptions dataset_options;
  dataset_options.scale = spec.default_scale * options.scale_multiplier;
  dataset_options.max_feature_dim = options.max_feature_dim;
  dataset_options.add_self_loops = spec.num_relations == 1;
  return MakeDataset(spec, dataset_options);
}

inline TrainConfig MakeTrainConfig(const BenchOptions& options, double effective_scale) {
  TrainConfig config;
  config.epochs = options.epochs + options.warmup;
  config.warmup_epochs = options.warmup;
  config.memory_budget_bytes = static_cast<uint64_t>(
      options.memory_budget_gb * effective_scale * 1024.0 * 1024.0 * 1024.0);
  return config;
}

// Table cell: "12.3" or "OOM".
inline std::string TimeCell(const TrainResult& result) {
  if (result.oom) {
    return "OOM";
  }
  return FormatDouble(result.avg_epoch_ms, 1);
}

inline std::string MemoryCell(const TrainResult& result) {
  if (result.oom) {
    return "OOM";
  }
  return FormatDouble(static_cast<double>(result.peak_bytes) / (1024.0 * 1024.0), 1);
}

inline void PrintHeaderRule(int width) {
  for (int i = 0; i < width; ++i) {
    std::putchar('-');
  }
  std::putchar('\n');
}

}  // namespace bench
}  // namespace seastar

#endif  // BENCH_BENCH_UTIL_H_
