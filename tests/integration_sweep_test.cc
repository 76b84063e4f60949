// Cross-cutting integration sweeps: every Table-2 catalogue entry
// materializes consistently, every homogeneous dataset trains one GCN step
// on every backend with identical results, and leftover op coverage (ELU,
// MatrixMarket integer field).
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>

#include "src/core/executor_factory.h"
#include "src/core/models/gcn.h"
#include "src/core/train.h"
#include "src/graph/io.h"
#include "src/tensor/autograd.h"
#include "src/tensor/ops.h"

namespace seastar {
namespace {

class CatalogueSweepTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CatalogueSweepTest, MaterializesConsistently) {
  const DatasetSpec* spec = FindDataset(GetParam());
  ASSERT_NE(spec, nullptr);
  DatasetOptions options;
  options.scale = 0.02;
  options.max_feature_dim = 24;
  Dataset data = MakeDataset(*spec, options);

  EXPECT_GE(data.spec.num_vertices, 8);
  EXPECT_EQ(data.graph.num_vertices(), data.spec.num_vertices);
  EXPECT_EQ(data.graph.num_edges(), data.spec.num_edges);
  EXPECT_EQ(data.graph.num_edge_types(), spec->num_relations);
  EXPECT_EQ(static_cast<int64_t>(data.labels.size()), data.spec.num_vertices);
  if (spec->feature_dim > 0) {
    EXPECT_TRUE(data.features.defined());
    EXPECT_LE(data.features.dim(1), 24);
  } else {
    EXPECT_FALSE(data.features.defined());
  }
  // Average degree of the scaled graph stays within 2x of the paper's
  // (self-loops shift it for the sparse citation graphs).
  const double paper_avg =
      static_cast<double>(spec->num_edges) / static_cast<double>(spec->num_vertices);
  EXPECT_LT(data.graph.AverageInDegree(), 2.0 * paper_avg + 2.0) << spec->name;
  EXPECT_GT(data.graph.AverageInDegree(), 0.3 * paper_avg) << spec->name;
}

INSTANTIATE_TEST_SUITE_P(AllTwelve, CatalogueSweepTest,
                         ::testing::Values("cora", "citeseer", "pubmed", "corafull", "ca_cs",
                                           "ca_physics", "amz_photo", "amz_comp", "reddit",
                                           "aifb", "mutag", "bgs"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// Parameterized by (dataset, executor spec).
class GcnBackendSweepTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(GcnBackendSweepTest, OneTrainingStepMatchesSeastar) {
  const auto& [dataset_name, spec] = GetParam();
  DatasetOptions options;
  options.scale = 0.02;
  options.max_feature_dim = 16;
  Dataset data = MakeDatasetByName(dataset_name, options);

  const auto loss_after_one_step = [&](const std::string& executor_spec) {
    GcnConfig config;
    config.dropout = 0.0f;  // Determinism across executors.
    Gcn model(data, config, ExecutorFactory::Create(executor_spec).value());
    TrainConfig train;
    train.epochs = 2;
    train.warmup_epochs = 0;
    return TrainNodeClassification(model, data, train).final_loss;
  };
  EXPECT_NEAR(loss_after_one_step(spec), loss_after_one_step("seastar"), 2e-3) << dataset_name;
}

INSTANTIATE_TEST_SUITE_P(
    DatasetsAndBackends, GcnBackendSweepTest,
    ::testing::Combine(::testing::Values("cora", "pubmed", "amz_photo"),
                       ::testing::Values("seastar-nofuse", "dgl", "pyg")),
    [](const ::testing::TestParamInfo<std::tuple<std::string, std::string>>& info) {
      std::string name = std::get<0>(info.param) + "_" + std::get<1>(info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) {
          c = '_';
        }
      }
      return name;
    });

TEST(EluTest, ForwardAndGradient) {
  Tensor x({4}, {-2.0f, -0.5f, 0.5f, 2.0f});
  Tensor y = ops::Elu(x, 1.0f);
  EXPECT_NEAR(y.at(0), std::exp(-2.0f) - 1.0f, 1e-6);
  EXPECT_FLOAT_EQ(y.at(3), 2.0f);

  Var v = Var::Leaf(x, true);
  Var out = ag::Elu(v, 1.0f);
  Backward(out, Tensor::Ones({4}));
  const float eps = 1e-3f;
  for (int64_t i = 0; i < 4; ++i) {
    Tensor up = x.Clone();
    up.at(i) += eps;
    Tensor down = x.Clone();
    down.at(i) -= eps;
    const float numeric =
        (ops::SumAll(ops::Elu(up, 1.0f)) - ops::SumAll(ops::Elu(down, 1.0f))) / (2 * eps);
    EXPECT_NEAR(v.grad().at(i), numeric, 1e-2);
  }
}

TEST(GraphIoTest, MatrixMarketIntegerField) {
  const auto path = (std::filesystem::temp_directory_path() / "seastar_int.mtx").string();
  {
    std::ofstream out(path);
    out << "%%MatrixMarket matrix coordinate integer general\n"
        << "2 2 2\n"
        << "1 2 7\n2 1 9\n";
  }
  auto loaded = LoadMatrixMarket(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->num_edges(), 2);
  std::filesystem::remove(path);
}

TEST(GraphIoTest, MatrixMarketRejectsOutOfBoundsEntry) {
  const auto path = (std::filesystem::temp_directory_path() / "seastar_oob.mtx").string();
  {
    std::ofstream out(path);
    out << "%%MatrixMarket matrix coordinate pattern general\n"
        << "2 2 1\n"
        << "3 1\n";
  }
  EXPECT_FALSE(LoadMatrixMarket(path).has_value());
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace seastar
