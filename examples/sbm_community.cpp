// End-to-end learning demo on data with real structure: community detection
// on a stochastic block model, where (unlike the scale-matched synthetic
// stand-ins used by the benchmarks) a GCN can genuinely generalize. Trains
// on 10% of vertices and reports held-out accuracy.
//
//   ./sbm_community [--vertices=600] [--communities=4] [--epochs=60]
#include <cmath>
#include <cstdio>

#include "src/common/string_util.h"
#include "src/core/executor_factory.h"
#include "src/core/models/gcn.h"
#include "src/core/nn.h"
#include "src/core/train.h"
#include "src/graph/generators.h"
#include "src/tensor/ops.h"

int main(int argc, char** argv) {
  using namespace seastar;
  const int64_t n = FlagInt(argc, argv, "vertices", 600);
  const int32_t communities = static_cast<int32_t>(FlagInt(argc, argv, "communities", 4));
  const int epochs = static_cast<int>(FlagInt(argc, argv, "epochs", 60));

  Rng rng(42);
  SbmResult sbm = StochasticBlockModel(n, communities, 0.08, 0.004, rng);
  AddSelfLoops(sbm.edges);

  Dataset data;
  data.spec.name = "sbm";
  data.spec.num_vertices = n;
  data.spec.num_classes = communities;
  data.spec.feature_dim = 16;
  data.graph = ToGraph(std::move(sbm.edges));
  data.spec.num_edges = data.graph.num_edges();
  data.features = ops::RandomNormal({n, 16}, 0.0f, 1.0f, rng);
  for (int64_t v = 0; v < n; ++v) {
    // Weak feature signal: one biased coordinate per community.
    data.features.at(v, sbm.labels[static_cast<size_t>(v)] % 16) += 1.5f;
  }
  data.labels = sbm.labels;
  data.gcn_norm = Tensor({n, 1});
  for (int64_t v = 0; v < n; ++v) {
    data.gcn_norm.at(v, 0) = 1.0f / std::sqrt(static_cast<float>(
                                  std::max<int64_t>(1, data.graph.InDegree(static_cast<int32_t>(v)))));
  }
  std::vector<int32_t> holdout;
  for (int64_t v = 0; v < n; ++v) {
    if (v % 10 == 0) {
      data.train_mask.push_back(static_cast<int32_t>(v));
    } else {
      holdout.push_back(static_cast<int32_t>(v));
    }
  }
  std::printf("SBM: %s, %d communities, train %zu / holdout %zu\n",
              data.graph.DebugString().c_str(), communities, data.train_mask.size(),
              holdout.size());

  std::shared_ptr<const Executor> executor = std::move(*ExecutorFactory::Create("seastar"));
  GcnConfig gcn;
  gcn.hidden_dim = 16;
  gcn.dropout = 0.3f;
  Gcn model(data, gcn, executor);
  TrainConfig train;
  train.epochs = epochs;
  TrainResult result = TrainNodeClassification(model, data, train);
  const float holdout_accuracy = Accuracy(model.Forward(false).value(), data.labels, holdout);
  std::printf("full-graph GCN : loss %.3f, train acc %.3f, HOLD-OUT acc %.3f (%.1f ms/epoch)\n",
              result.final_loss, result.train_accuracy, holdout_accuracy, result.avg_epoch_ms);
  return 0;
}
