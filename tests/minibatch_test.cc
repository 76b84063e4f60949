// Mini-batch sampled training: learning on an SBM graph (where communities
// are actually learnable), backend invariance of the pipeline, and config
// validation.
#include <gtest/gtest.h>

#include <cmath>

#include "src/core/executor_factory.h"
#include "src/core/minibatch.h"
#include "src/graph/generators.h"
#include "src/tensor/ops.h"

namespace seastar {
namespace {

// An SBM dataset with community-informative features.
Dataset SbmDataset(uint64_t seed, int64_t n = 240, int32_t communities = 3) {
  Rng rng(seed);
  SbmResult sbm = StochasticBlockModel(n, communities, 0.08, 0.005, rng);
  AddSelfLoops(sbm.edges);

  Dataset data;
  data.spec.name = "sbm";
  data.spec.num_vertices = n;
  data.spec.num_classes = communities;
  data.spec.feature_dim = 8;
  data.graph = ToGraph(std::move(sbm.edges));
  data.spec.num_edges = data.graph.num_edges();
  // Features: community mean + noise (signal-to-noise chosen so a 2-layer
  // GCN separates communities easily).
  data.features = ops::RandomNormal({n, 8}, 0.0f, 1.0f, rng);
  for (int64_t v = 0; v < n; ++v) {
    data.features.at(v, sbm.labels[static_cast<size_t>(v)] % 8) += 2.0f;
  }
  data.labels = std::move(sbm.labels);
  data.gcn_norm = Tensor({n, 1});
  for (int64_t v = 0; v < n; ++v) {
    data.gcn_norm.at(v, 0) =
        1.0f / std::sqrt(static_cast<float>(std::max<int64_t>(1, data.graph.InDegree(
                                                                      static_cast<int32_t>(v)))));
  }
  for (int64_t v = 0; v < n; v += 10) {
    data.train_mask.push_back(static_cast<int32_t>(v));
  }
  return data;
}

TEST(MiniBatchTest, LearnsCommunitiesOnSbm) {
  Dataset data = SbmDataset(1);
  MiniBatchConfig config;
  config.epochs = 4;
  config.batch_size = 48;
  config.fanouts = {8, 8};
  config.learning_rate = 0.02f;
  MiniBatchResult result = TrainMiniBatchGcn(data, config, ExecutorFactory::Create("seastar").value());
  EXPECT_GT(result.batches_run, 0);
  EXPECT_GT(result.seed_accuracy, 0.8f);
  EXPECT_LT(result.final_loss, 1.0f);
}

TEST(MiniBatchTest, RunsOnEveryBackend) {
  Dataset data = SbmDataset(2, 120);
  for (const char* spec : {"seastar", "dgl", "pyg"}) {
    MiniBatchConfig config;
    config.epochs = 1;
    config.batch_size = 40;
    config.fanouts = {5, 5};
    MiniBatchResult result =
        TrainMiniBatchGcn(data, config, ExecutorFactory::Create(spec).value());
    EXPECT_EQ(result.batches_run, 3) << spec;
    EXPECT_GT(result.avg_batch_ms, 0.0);
  }
}

TEST(MiniBatchTest, FullFanoutMatchesMoreNeighbors) {
  // fanout 0 (= all) must sample at least as many edges per block as a small
  // fanout; sanity-check through the sampler directly.
  Dataset data = SbmDataset(3, 90);
  Rng rng(4);
  SampledSubgraph small = SampleNeighborhood(data.graph, {0, 1, 2}, {2, 2}, rng);
  Rng rng2(4);
  SampledSubgraph full = SampleNeighborhood(data.graph, {0, 1, 2}, {0, 0}, rng2);
  EXPECT_GE(full.graph.num_edges(), small.graph.num_edges());
}

TEST(SbmTest, GeneratorIsCommunityBiased) {
  Rng rng(5);
  SbmResult sbm = StochasticBlockModel(150, 3, 0.1, 0.005, rng);
  int64_t intra = 0;
  int64_t inter = 0;
  for (size_t e = 0; e < sbm.edges.src.size(); ++e) {
    const bool same = sbm.labels[static_cast<size_t>(sbm.edges.src[e])] ==
                      sbm.labels[static_cast<size_t>(sbm.edges.dst[e])];
    (same ? intra : inter) += 1;
  }
  EXPECT_GT(intra, inter * 3);
}

}  // namespace
}  // namespace seastar
