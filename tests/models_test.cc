// Model-level tests: backend equivalence (same logits and gradients across
// Seastar/DGL-like/PyG-like execution), learning (loss decreases), and the
// memory ordering the paper reports (PyG materializes the most).
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/core/checkpoint.h"
#include "src/core/executor_factory.h"
#include "src/core/models/appnp.h"
#include "src/core/models/gat.h"
#include "src/core/models/gcn.h"
#include "src/core/models/rgcn.h"
#include "src/core/nn.h"
#include "src/core/train.h"
#include "src/tensor/allocator.h"
#include "src/tensor/ops.h"

namespace seastar {
namespace {

Dataset SmallDataset(const std::string& name = "cora", double scale = 0.08) {
  DatasetOptions options;
  options.scale = scale;
  options.max_feature_dim = 32;
  return MakeDataset(*FindDataset(name), options);
}

std::shared_ptr<const Executor> Config(const std::string& spec) {
  return ExecutorFactory::Create(spec).value();
}

TEST(GcnModelTest, ForwardShapeAndDeterminism) {
  Dataset data = SmallDataset();
  GcnConfig config;
  Gcn model(data, config, Config("seastar"));
  Var logits = model.Forward(/*training=*/false);
  EXPECT_EQ(logits.value().dim(0), data.spec.num_vertices);
  EXPECT_EQ(logits.value().dim(1), data.spec.num_classes);
  Var again = model.Forward(/*training=*/false);
  EXPECT_TRUE(logits.value().AllClose(again.value(), 1e-5f));
}

TEST(GcnModelTest, AllBackendsProduceSameLogits) {
  Dataset data = SmallDataset();
  GcnConfig config;
  Tensor reference;
  for (const char* spec : {"seastar", "seastar-nofuse", "dgl", "pyg"}) {
    Gcn model(data, config, Config(spec));  // Same seed => same weights.
    Tensor logits = model.Forward(/*training=*/false).value();
    if (!reference.defined()) {
      reference = logits;
    } else {
      EXPECT_TRUE(reference.AllClose(logits, 1e-3f)) << spec;
    }
  }
}

TEST(GcnModelTest, AllBackendsProduceSameGradients) {
  Dataset data = SmallDataset();
  GcnConfig config;
  std::vector<Tensor> reference;
  for (const char* spec : {"seastar", "dgl", "pyg"}) {
    Gcn model(data, config, Config(spec));
    Var loss = ag::NllLoss(ag::LogSoftmax(model.Forward(/*training=*/false)), data.labels,
                           data.train_mask);
    Backward(loss, Tensor::Ones({1}));
    std::vector<Var> params = model.Parameters();
    if (reference.empty()) {
      for (Var& p : params) {
        reference.push_back(p.grad().Clone());
      }
    } else {
      for (size_t i = 0; i < params.size(); ++i) {
        EXPECT_TRUE(reference[i].AllClose(params[i].grad(), 1e-3f))
            << spec << " param " << i;
      }
    }
  }
}

TEST(GcnModelTest, LossDecreasesOverTraining) {
  Dataset data = SmallDataset();
  GcnConfig config;
  Gcn model(data, config, Config("seastar"));
  TrainConfig train;
  train.epochs = 30;
  train.warmup_epochs = 1;
  train.learning_rate = 0.02f;

  // First-epoch loss for comparison.
  Var first_loss = ag::NllLoss(ag::LogSoftmax(model.Forward(true)), data.labels,
                               data.train_mask);
  TrainResult result = TrainNodeClassification(model, data, train);
  EXPECT_FALSE(result.oom);
  EXPECT_EQ(result.epochs_run, 30);
  EXPECT_LT(result.final_loss, first_loss.value().at(0));
  EXPECT_GT(result.train_accuracy, 0.3f);  // Random labels; memorization only.
}

TEST(GatModelTest, AllBackendsProduceSameLogits) {
  Dataset data = SmallDataset("citeseer", 0.06);
  GatConfig config;
  config.num_heads = 2;
  config.hidden_dim = 4;
  Tensor reference;
  for (const char* spec : {"seastar", "dgl", "pyg"}) {
    Gat model(data, config, Config(spec));
    Tensor logits = model.Forward(/*training=*/false).value();
    if (!reference.defined()) {
      reference = logits;
    } else {
      EXPECT_TRUE(reference.AllClose(logits, 1e-3f)) << spec;
    }
  }
}

TEST(GatModelTest, MultiHeadOutputWidths) {
  Dataset data = SmallDataset();
  GatConfig config;
  config.num_heads = 4;
  config.hidden_dim = 6;
  Gat model(data, config, Config("seastar"));
  Var logits = model.Forward(false);
  EXPECT_EQ(logits.value().dim(1), data.spec.num_classes);
}

TEST(GatModelTest, TrainsToLowerLoss) {
  Dataset data = SmallDataset();
  GatConfig config;
  config.num_heads = 2;
  config.hidden_dim = 4;
  config.feat_dropout = 0.0f;
  Gat model(data, config, Config("seastar"));
  TrainConfig train;
  train.epochs = 25;
  train.learning_rate = 0.02f;
  Var first_loss =
      ag::NllLoss(ag::LogSoftmax(model.Forward(true)), data.labels, data.train_mask);
  TrainResult result = TrainNodeClassification(model, data, train);
  EXPECT_LT(result.final_loss, first_loss.value().at(0));
}

// A snapshot in the per-head GAT layout — W_h [in, dim], a_l,h and a_r,h
// [dim, 1] per head and layer — with zero weights and moments.
TrainCheckpoint PerHeadGatCheckpoint(const Dataset& data, const GatConfig& config) {
  TrainCheckpoint checkpoint;
  int64_t in_dim = data.features.dim(1);
  for (int layer = 0; layer < config.num_layers; ++layer) {
    const bool last = layer == config.num_layers - 1;
    const int64_t heads = last ? 1 : config.num_heads;
    const int64_t dim = last ? data.spec.num_classes : config.hidden_dim;
    for (int64_t h = 0; h < heads; ++h) {
      for (const std::vector<int64_t>& shape :
           {std::vector<int64_t>{in_dim, dim}, std::vector<int64_t>{dim, 1},
            std::vector<int64_t>{dim, 1}}) {
        checkpoint.parameters.push_back(Tensor::Zeros(shape));
        checkpoint.adam_m.push_back(Tensor::Zeros(shape));
        checkpoint.adam_v.push_back(Tensor::Zeros(shape));
      }
    }
    in_dim = heads * dim;
  }
  checkpoint.has_adam = true;
  return checkpoint;
}

TEST(GatModelTest, PerHeadCheckpointIsRefusedOnResume) {
  // The head-batched layout does not load per-head snapshots: more heads
  // mean more parameters, one head means transposed attention vectors.
  // Either way resuming fails with a Status, never a crash.
  Dataset data = SmallDataset();
  const std::string path =
      (std::filesystem::temp_directory_path() / "seastar_gat_per_head.ckpt").string();
  for (const int heads : {2, 1}) {
    SCOPED_TRACE(std::to_string(heads) + " heads");
    GatConfig config;
    config.num_heads = heads;
    config.hidden_dim = 4;
    ASSERT_TRUE(SaveCheckpoint(PerHeadGatCheckpoint(data, config), path).ok());
    Gat model(data, config, Config("seastar"));
    TrainConfig train;
    train.epochs = 2;
    train.checkpoint_path = path;
    train.resume = true;
    const TrainResult result = TrainNodeClassification(model, data, train);
    EXPECT_TRUE(result.failed);
    EXPECT_EQ(result.error.rfind("INVALID_ARGUMENT", 0), 0u) << result.error;
    EXPECT_NE(result.error.find(heads == 2 ? "holds 9 parameters, model has 6"
                                           : "parameter 1 is Tensor[4x1], model expects Tensor[1x4]"),
              std::string::npos)
        << result.error;
  }
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".prev");
}

TEST(AppnpModelTest, AllBackendsProduceSameLogits) {
  Dataset data = SmallDataset("pubmed", 0.02);
  AppnpConfig config;
  config.num_hops = 4;
  Tensor reference;
  for (const char* spec : {"seastar", "dgl", "pyg"}) {
    Appnp model(data, config, Config(spec));
    Tensor logits = model.Forward(/*training=*/false).value();
    if (!reference.defined()) {
      reference = logits;
    } else {
      EXPECT_TRUE(reference.AllClose(logits, 1e-3f)) << spec;
    }
  }
}

TEST(AppnpModelTest, TeleportKeepsH0Influence) {
  // With alpha = 1 the propagation must return exactly h0 regardless of K.
  Dataset data = SmallDataset();
  AppnpConfig config;
  config.alpha = 1.0f;
  config.num_hops = 5;
  config.dropout = 0.0f;
  Appnp model(data, config, Config("seastar"));
  AppnpConfig mlp_only = config;
  mlp_only.num_hops = 0;
  Appnp reference(data, mlp_only, Config("seastar"));
  EXPECT_TRUE(model.Forward(false).value().AllClose(reference.Forward(false).value(), 1e-4f));
}

TEST(AppnpModelTest, TrainsToLowerLoss) {
  Dataset data = SmallDataset();
  AppnpConfig config;
  config.num_hops = 3;
  config.dropout = 0.0f;
  Appnp model(data, config, Config("seastar"));
  TrainConfig train;
  train.epochs = 25;
  train.learning_rate = 0.05f;
  Var first_loss =
      ag::NllLoss(ag::LogSoftmax(model.Forward(true)), data.labels, data.train_mask);
  TrainResult result = TrainNodeClassification(model, data, train);
  EXPECT_LT(result.final_loss, first_loss.value().at(0));
}

TEST(RgcnModelTest, AllModesProduceSameLogits) {
  DatasetOptions options;
  options.scale = 0.03;
  Dataset data = MakeDataset(*FindDataset("aifb"), options);
  RgcnConfig config;
  Tensor reference;
  for (RgcnMode mode : {RgcnMode::kSeastar, RgcnMode::kDglBmm, RgcnMode::kPygBmm,
                        RgcnMode::kDglSequential, RgcnMode::kPygSequential}) {
    RgcnConfig mode_config = config;
    mode_config.mode = mode;
    Rgcn model(data, mode_config);  // Same seed => same weights.
    Tensor logits = model.Forward(/*training=*/false).value();
    if (!reference.defined()) {
      reference = logits;
    } else {
      EXPECT_TRUE(reference.AllClose(logits, 1e-3f)) << RgcnModeName(mode);
    }
  }
}

TEST(RgcnModelTest, SeastarAndSequentialGradientsMatch) {
  DatasetOptions options;
  options.scale = 0.02;
  Dataset data = MakeDataset(*FindDataset("aifb"), options);
  std::vector<Tensor> reference;
  for (RgcnMode mode : {RgcnMode::kSeastar, RgcnMode::kDglSequential}) {
    RgcnConfig config;
    config.mode = mode;
    Rgcn model(data, config);
    Var loss = ag::NllLoss(ag::LogSoftmax(model.Forward(false)), data.labels, data.train_mask);
    Backward(loss, Tensor::Ones({1}));
    std::vector<Var> params = model.Parameters();
    if (reference.empty()) {
      for (Var& p : params) {
        // Some relation weights may be untouched (no edges of that type).
        reference.push_back(p.grad().defined() ? p.grad().Clone() : Tensor());
      }
    } else {
      for (size_t i = 0; i < params.size(); ++i) {
        if (!reference[i].defined()) {
          continue;
        }
        if (!params[i].grad().defined()) {
          // The sequential path skips relations with no edges entirely; the
          // batched path produced an (all-zero) gradient for them.
          EXPECT_NEAR(ops::SumAll(ops::Mul(reference[i], reference[i])), 0.0f, 1e-8f) << i;
          continue;
        }
        EXPECT_TRUE(reference[i].AllClose(params[i].grad(), 1e-3f)) << i;
      }
    }
  }
}

TEST(RgcnModelTest, TrainsToLowerLoss) {
  DatasetOptions options;
  options.scale = 0.03;
  Dataset data = MakeDataset(*FindDataset("aifb"), options);
  RgcnConfig config;
  Rgcn model(data, config);
  TrainConfig train;
  train.epochs = 20;
  train.learning_rate = 0.02f;
  Var first_loss =
      ag::NllLoss(ag::LogSoftmax(model.Forward(true)), data.labels, data.train_mask);
  TrainResult result = TrainNodeClassification(model, data, train);
  EXPECT_LT(result.final_loss, first_loss.value().at(0));
}

TEST(MemoryTest, PygPeaksAboveSeastarOnDenseGraph) {
  // amz_comp-like: high average degree, where edge materialization dominates.
  DatasetOptions options;
  options.scale = 0.15;
  options.max_feature_dim = 32;
  Dataset data = MakeDataset(*FindDataset("amz_comp"), options);
  GatConfig config;
  config.num_heads = 2;
  config.hidden_dim = 8;

  TensorAllocator& allocator = TensorAllocator::Get();
  const auto peak_for = [&](const char* spec) {
    Gat model(data, config, Config(spec));
    allocator.ResetPeak();
    Var loss = ag::NllLoss(ag::LogSoftmax(model.Forward(true)), data.labels, data.train_mask);
    Backward(loss, Tensor::Ones({1}));
    return allocator.peak_bytes();
  };
  const uint64_t seastar_peak = peak_for("seastar");
  const uint64_t dgl_peak = peak_for("dgl");
  const uint64_t pyg_peak = peak_for("pyg");
  EXPECT_GT(pyg_peak, seastar_peak);
  EXPECT_GT(pyg_peak, dgl_peak);
  EXPECT_GE(dgl_peak, seastar_peak);
}

TEST(TrainerTest, OomFlagTriggersUnderTinyBudget) {
  Dataset data = SmallDataset();
  GcnConfig config;
  Gcn model(data, config, Config("pyg"));
  TrainConfig train;
  train.epochs = 5;
  train.memory_budget_bytes = 1;  // Everything exceeds 1 byte.
  TrainResult result = TrainNodeClassification(model, data, train);
  EXPECT_TRUE(result.oom);
  EXPECT_LT(result.epochs_run, 5);
}

TEST(TrainerTest, ReportsTimingAndMemory) {
  Dataset data = SmallDataset();
  GcnConfig config;
  Gcn model(data, config, Config("seastar"));
  TrainConfig train;
  train.epochs = 6;
  train.warmup_epochs = 2;
  TrainResult result = TrainNodeClassification(model, data, train);
  EXPECT_GT(result.avg_epoch_ms, 0.0);
  EXPECT_GT(result.peak_bytes, 0u);
  EXPECT_EQ(result.epochs_run, 6);
  EXPECT_FALSE(result.oom);
}

TEST(NnTest, AdamConvergesOnQuadratic) {
  // Minimize ||x - t||^2 for a fixed target t.
  Rng rng(1);
  Var x = Var::Leaf(ops::RandomNormal({8}, 0, 1, rng), true);
  Tensor target = ops::RandomNormal({8}, 0, 1, rng);
  Adam adam({x}, 0.1f);
  float last = 1e30f;
  for (int step = 0; step < 200; ++step) {
    Var diff = ag::Sub(x, Var::Leaf(target, false));
    Var sq = ag::Mul(diff, diff);
    Backward(sq, Tensor::Ones({8}));
    adam.Step();
    adam.ZeroGrad();
    last = ops::SumAll(sq.value());
  }
  EXPECT_LT(last, 1e-3f);
}

TEST(NnTest, StackedRelationMatmulGradients) {
  Rng rng(2);
  Tensor x_val = ops::RandomNormal({5, 3}, 0, 1, rng);
  Var x = Var::Leaf(x_val, true);
  std::vector<Var> weights;
  for (int r = 0; r < 3; ++r) {
    weights.push_back(Var::Leaf(ops::RandomNormal({3, 2}, 0, 1, rng), true));
  }
  Var stack = StackedRelationMatmul(x, weights);
  ASSERT_EQ(stack.value().dim(0), 3);
  Backward(stack, Tensor::Ones({3, 5, 2}));
  // dW_r = X^T @ ones; dX = sum_r ones @ W_r^T.
  Tensor ones({5, 2});
  ones.Fill(1.0f);
  for (int r = 0; r < 3; ++r) {
    Tensor expected = ops::MatmulTransposeA(x_val, ones);
    EXPECT_TRUE(weights[static_cast<size_t>(r)].grad().AllClose(expected, 1e-4f)) << r;
  }
  Tensor dx_expected = Tensor::Zeros({5, 3});
  for (int r = 0; r < 3; ++r) {
    dx_expected = ops::Add(dx_expected,
                           ops::MatmulTransposeB(ones, weights[static_cast<size_t>(r)].value()));
  }
  EXPECT_TRUE(x.grad().AllClose(dx_expected, 1e-4f));
}

TEST(NnTest, AccuracyMetric) {
  Tensor logits({3, 2}, {0.9f, 0.1f, 0.2f, 0.8f, 0.7f, 0.3f});
  EXPECT_FLOAT_EQ(Accuracy(logits, {0, 1, 1}, {}), 2.0f / 3.0f);
  EXPECT_FLOAT_EQ(Accuracy(logits, {0, 1, 1}, {0, 1}), 1.0f);
}

}  // namespace
}  // namespace seastar
