// Shared driver for Figure 10 (a/b/c): per-epoch training time of one
// homogeneous model across the paper's 9 datasets under the DGL-like,
// PyG-like and Seastar execution strategies.
#ifndef BENCH_FIG10_COMMON_H_
#define BENCH_FIG10_COMMON_H_

#include <cstdio>
#include <functional>
#include <memory>

#include "bench/bench_util.h"
#include "src/core/executor_factory.h"
#include "src/core/models/model.h"

namespace seastar {
namespace bench {

using ModelFactory =
    std::function<std::unique_ptr<GnnModel>(const Dataset&, std::shared_ptr<const Executor>)>;

inline int RunFig10(const char* figure, const char* model_name, int argc, char** argv,
                    const ModelFactory& factory) {
  BenchOptions options = ParseBenchOptions(argc, argv);
  BenchProfile profile(options);
  std::printf("%s: per-epoch time (ms) of %s training — paper Fig. 10\n", figure, model_name);
  std::printf("(scale multiplier %.3g, %d timed epochs + %d warmup, feature cap %lld)\n\n",
              options.scale_multiplier, options.epochs, options.warmup,
              static_cast<long long>(options.max_feature_dim));
  std::printf("%-12s %10s %10s %10s %10s %10s %12s\n", "dataset", "|V|", "|E|", "DGL", "PYG",
              "Seastar", "speedup/DGL");
  PrintHeaderRule(80);

  for (const DatasetSpec& spec : HomogeneousDatasets()) {
    if (!DatasetSelected(options, spec.name)) {
      continue;
    }
    Dataset data = LoadDataset(spec, options);
    const double effective_scale = spec.default_scale * options.scale_multiplier;
    TrainConfig train = MakeTrainConfig(options, effective_scale);

    double dgl_ms = 0.0;
    double seastar_ms = 0.0;
    std::string cells[3];
    const char* kSpecs[3] = {"dgl", "pyg", "seastar"};
    for (int i = 0; i < 3; ++i) {
      std::unique_ptr<GnnModel> model =
          factory(data, std::move(*ExecutorFactory::Create(kSpecs[i])));
      trace::ScopedRun run(profile.sink(), trace::Intern(spec.name + "/" + kSpecs[i]), "bench");
      TrainResult result = TrainNodeClassification(*model, data, train);
      cells[i] = TimeCell(result);
      if (i == 0) {
        dgl_ms = result.oom ? 0.0 : result.avg_epoch_ms;
      }
      if (i == 2) {
        seastar_ms = result.avg_epoch_ms;
      }
    }
    const double speedup = (dgl_ms > 0.0 && seastar_ms > 0.0) ? dgl_ms / seastar_ms : 0.0;
    std::printf("%-12s %10lld %10lld %10s %10s %10s %11.2fx\n", spec.name.c_str(),
                static_cast<long long>(data.spec.num_vertices),
                static_cast<long long>(data.spec.num_edges), cells[0].c_str(),
                cells[1].c_str(), cells[2].c_str(), speedup);
    std::fflush(stdout);
  }
  std::printf("\npaper shape: Seastar fastest on every dataset; largest gains on\n"
              "high-average-degree graphs (amz_comp, reddit).\n");
  WriteMetricsSnapshots(options);
  profile.Finish();
  return 0;
}

}  // namespace bench
}  // namespace seastar

#endif  // BENCH_FIG10_COMMON_H_
