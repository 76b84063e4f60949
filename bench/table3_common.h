// Shared driver for Tables 3 and 4: R-GCN on the heterogeneous datasets
// under the five execution modes (Seastar, PyG-bmm, PyG, DGL-bmm, DGL).
#ifndef BENCH_TABLE3_COMMON_H_
#define BENCH_TABLE3_COMMON_H_

#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/metrics.h"
#include "src/core/models/rgcn.h"
#include "src/exec/executor.h"

namespace seastar {
namespace bench {

inline constexpr RgcnMode kTableModes[] = {
    RgcnMode::kSeastar, RgcnMode::kPygBmm, RgcnMode::kPygSequential, RgcnMode::kDglBmm,
    RgcnMode::kDglSequential,
};

// `metric`: true => per-epoch ms (Table 3); false => peak MB (Table 4).
inline int RunRgcnTable(const char* table, bool time_metric, int argc, char** argv) {
  BenchOptions options = ParseBenchOptions(argc, argv);
  BenchProfile profile(options);
  if (!time_metric) {
    options.epochs = static_cast<int>(FlagInt(argc, argv, "epochs", 3));
  }
  std::printf("%s: R-GCN %s — paper %s\n", table,
              time_metric ? "per-epoch time (ms)" : "peak memory (MB)", table);
  std::printf("(scale multiplier %.3g, %d timed epochs + %d warmup)\n\n",
              options.scale_multiplier, options.epochs, options.warmup);
  std::printf("%-8s %16s %16s %16s %16s %16s\n", "dataset", "Seastar", "PyG-bmm", "PyG",
              "DGL-bmm", "DGL");
  std::printf("%-8s %16s %16s %16s %16s %16s\n", "", "(ms | kernels)", "(ms | kernels)",
              "(ms | kernels)", "(ms | kernels)", "(ms | kernels)");
  PrintHeaderRule(94);

  for (const DatasetSpec& spec : HeterogeneousDatasets()) {
    if (!DatasetSelected(options, spec.name)) {
      continue;
    }
    Dataset data = LoadDataset(spec, options);
    const double effective_scale = spec.default_scale * options.scale_multiplier;
    TrainConfig train = MakeTrainConfig(options, effective_scale);

    std::printf("%-8s", spec.name.c_str());
    for (RgcnMode mode : kTableModes) {
      RgcnConfig config;
      config.mode = mode;
      Rgcn model(data, config);
      const int64_t launches_before = KernelLaunchesTotal().value();
      trace::ScopedRun run(profile.sink(), trace::Intern(spec.name + "/" + RgcnModeName(mode)),
                           "bench");
      TrainResult result = TrainNodeClassification(model, data, train);
      const int64_t launches_per_epoch =
          result.epochs_run > 0
              ? (KernelLaunchesTotal().value() - launches_before) / result.epochs_run
              : 0;
      if (time_metric) {
        std::printf(" %9s | %4lld", TimeCell(result).c_str(),
                    static_cast<long long>(launches_per_epoch));
      } else {
        std::printf(" %16s", MemoryCell(result).c_str());
      }
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  if (time_metric) {
    std::printf(
        "\npaper shape: Seastar fastest, bmm variants close, per-relation-sequential\n"
        "DGL/PyG orders of magnitude behind. On this single-core CPU simulation all\n"
        "modes execute the same FLOPs, so the *time* contrast compresses; the\n"
        "kernels/epoch column preserves the paper's mechanism (the sequential paths\n"
        "launch one kernel sequence per relation, which is what stalls a GPU).\n");
  } else {
    std::printf("\npaper shape: Seastar ~= DGL-bmm < DGL < PyG-bmm ~= PyG;\n"
                "PyG(-bmm) OOM on bgs at full scale.\n");
  }
  WriteMetricsSnapshots(options);
  profile.Finish();
  return 0;
}

}  // namespace bench
}  // namespace seastar

#endif  // BENCH_TABLE3_COMMON_H_
