// Tests for the extended model zoo (GraphSAGE, GIN, SGC): backend
// equivalence, shape checks, learning, and model-specific semantics.
#include <gtest/gtest.h>

#include "src/core/executor_factory.h"
#include "src/core/models/gin.h"
#include "src/core/models/sage.h"
#include "src/core/models/sgc.h"
#include "src/core/train.h"
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

// Parameterized by executor spec.
class ZooBackendTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ZooBackendTest, SageMeanMatchesSeastar) {
  Dataset data = SmallDataset();
  SageConfig config;
  Sage reference(data, config, Config("seastar"));
  Sage model(data, config, Config(GetParam()));
  EXPECT_TRUE(
      reference.Forward(false).value().AllClose(model.Forward(false).value(), 1e-3f));
}

TEST_P(ZooBackendTest, GinMatchesSeastar) {
  Dataset data = SmallDataset();
  GinConfig config;
  Gin reference(data, config, Config("seastar"));
  Gin model(data, config, Config(GetParam()));
  EXPECT_TRUE(
      reference.Forward(false).value().AllClose(model.Forward(false).value(), 1e-3f));
}

INSTANTIATE_TEST_SUITE_P(Backends, ZooBackendTest,
                         ::testing::Values("seastar-nofuse", "dgl", "pyg"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(SageModelTest, PoolVariantRunsAndLearns) {
  Dataset data = SmallDataset();
  SageConfig config;
  config.aggregator = SageAggregator::kPool;
  config.dropout = 0.0f;
  Sage model(data, config, Config("seastar"));
  Var first_loss =
      ag::NllLoss(ag::LogSoftmax(model.Forward(true)), data.labels, data.train_mask);
  TrainConfig train;
  train.epochs = 20;
  train.learning_rate = 0.02f;
  TrainResult result = TrainNodeClassification(model, data, train);
  EXPECT_LT(result.final_loss, first_loss.value().at(0));
}

TEST(SageModelTest, MeanVariantLearns) {
  Dataset data = SmallDataset();
  SageConfig config;
  config.dropout = 0.0f;
  Sage model(data, config, Config("seastar"));
  Var first_loss =
      ag::NllLoss(ag::LogSoftmax(model.Forward(true)), data.labels, data.train_mask);
  TrainConfig train;
  train.epochs = 20;
  train.learning_rate = 0.02f;
  TrainResult result = TrainNodeClassification(model, data, train);
  EXPECT_LT(result.final_loss, first_loss.value().at(0));
}

TEST(GinModelTest, EpsilonScalesSelfContribution) {
  // On an isolated vertex (no in-edges beyond nothing), GIN output depends
  // only on (1 + eps) * h_v; doubling (1+eps) must scale the pre-MLP input.
  Dataset data = SmallDataset();
  GinConfig a;
  a.epsilon = 0.0f;
  a.dropout = 0.0f;
  GinConfig b = a;
  b.epsilon = 1.0f;
  Gin model_a(data, a, Config("seastar"));
  Gin model_b(data, b, Config("seastar"));
  // Same seed -> same MLP weights; different eps -> different logits.
  EXPECT_FALSE(
      model_a.Forward(false).value().AllClose(model_b.Forward(false).value(), 1e-3f));
}

TEST(GinModelTest, Learns) {
  Dataset data = SmallDataset();
  GinConfig config;
  config.dropout = 0.0f;
  Gin model(data, config, Config("seastar"));
  Var first_loss =
      ag::NllLoss(ag::LogSoftmax(model.Forward(true)), data.labels, data.train_mask);
  TrainConfig train;
  train.epochs = 20;
  train.learning_rate = 0.02f;
  TrainResult result = TrainNodeClassification(model, data, train);
  EXPECT_LT(result.final_loss, first_loss.value().at(0));
}

TEST(SgcModelTest, PropagationIsBackendInvariant) {
  Dataset data = SmallDataset();
  SgcConfig config;
  Sgc a(data, config, Config("seastar"));
  Sgc b(data, config, Config("dgl"));
  Sgc c(data, config, Config("pyg"));
  EXPECT_TRUE(a.propagated_features().AllClose(b.propagated_features(), 1e-3f));
  EXPECT_TRUE(a.propagated_features().AllClose(c.propagated_features(), 1e-3f));
}

TEST(SgcModelTest, ZeroHopsEqualsRawFeatures) {
  Dataset data = SmallDataset();
  SgcConfig config;
  config.num_hops = 0;
  Sgc model(data, config, Config("seastar"));
  EXPECT_TRUE(model.propagated_features().AllClose(data.features, 1e-6f));
}

TEST(SgcModelTest, TrainsFastAndLearns) {
  Dataset data = SmallDataset();
  SgcConfig config;
  Sgc model(data, config, Config("seastar"));
  Var first_loss =
      ag::NllLoss(ag::LogSoftmax(model.Forward(true)), data.labels, data.train_mask);
  TrainConfig train;
  train.epochs = 40;
  train.learning_rate = 0.05f;
  TrainResult result = TrainNodeClassification(model, data, train);
  EXPECT_LT(result.final_loss, first_loss.value().at(0));
  EXPECT_EQ(model.Parameters().size(), 2u);  // W and bias only.
}

}  // namespace
}  // namespace seastar
