// Failure-injection and boundary tests for the executors: degenerate graphs
// (empty, single vertex, no edges, pure self-loops, duplicate/multi edges),
// degenerate programs, and width extremes.
#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <limits>

#include "src/common/rng.h"
#include "src/exec/baseline_executor.h"
#include "src/exec/seastar_executor.h"
#include "src/gir/builder.h"
#include "src/graph/generators.h"
#include "src/tensor/ops.h"

namespace seastar {
namespace {

GirGraph SumProgram(int32_t width) {
  GirBuilder b;
  b.MarkOutput(AggSum(b.Src("h", width)), "out");
  return b.TakeGraph();
}

void ExpectAllAgree(const GirGraph& gir, const Graph& g, const FeatureMap& features) {
  SeastarExecutor seastar;
  BaselineExecutor dgl({BaselineFlavor::kDglLike});
  BaselineExecutor pyg({BaselineFlavor::kPygLike});
  Tensor a = seastar.Run(gir, g, features).outputs.begin()->second;
  Tensor c = dgl.Run(gir, g, features).outputs.begin()->second;
  Tensor d = pyg.Run(gir, g, features).outputs.begin()->second;
  EXPECT_TRUE(a.AllClose(c, 1e-5f));
  EXPECT_TRUE(a.AllClose(d, 1e-5f));
}

TEST(ExecEdgeCaseTest, GraphWithNoEdges) {
  Graph g = Graph::FromCoo(5, {}, {});
  GirGraph gir = SumProgram(3);
  FeatureMap features;
  Rng rng(1);
  features.vertex["h"] = ops::RandomNormal({5, 3}, 0, 1, rng);
  SeastarExecutor ex;
  Tensor out = ex.Run(gir, g, features).outputs.at("out");
  EXPECT_TRUE(out.AllClose(Tensor::Zeros({5, 3}), 1e-6f));
  ExpectAllAgree(gir, g, features);
}

TEST(ExecEdgeCaseTest, SingleVertexSelfLoop) {
  Graph g = Graph::FromCoo(1, {0}, {0});
  GirGraph gir = SumProgram(2);
  FeatureMap features;
  features.vertex["h"] = Tensor({1, 2}, {3.0f, 4.0f});
  SeastarExecutor ex;
  Tensor out = ex.Run(gir, g, features).outputs.at("out");
  EXPECT_FLOAT_EQ(out.at(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(out.at(0, 1), 4.0f);
}

TEST(ExecEdgeCaseTest, DuplicateEdgesCountTwice) {
  // Multigraph semantics: each duplicate contributes to the aggregation.
  Graph g = Graph::FromCoo(2, {0, 0, 0}, {1, 1, 1});
  GirGraph gir = SumProgram(1);
  FeatureMap features;
  features.vertex["h"] = Tensor({2, 1}, {5.0f, 0.0f});
  SeastarExecutor ex;
  Tensor out = ex.Run(gir, g, features).outputs.at("out");
  EXPECT_FLOAT_EQ(out.at(1, 0), 15.0f);
  ExpectAllAgree(gir, g, features);
}

TEST(ExecEdgeCaseTest, WidthOneEverything) {
  Rng rng(2);
  CooEdges edges = ErdosRenyi(30, 120, rng);
  AddSelfLoops(edges);
  Graph g = ToGraph(std::move(edges));
  GirBuilder b;
  Value e = Exp(b.Src("x", 1) - b.Dst("y", 1));
  b.MarkOutput(AggSum(e / AggSum(e)), "out");
  FeatureMap features;
  features.vertex["x"] = ops::RandomNormal({30, 1}, 0, 1, rng);
  features.vertex["y"] = ops::RandomNormal({30, 1}, 0, 1, rng);
  ExpectAllAgree(b.graph(), g, features);
}

TEST(ExecEdgeCaseTest, WidthLargerThanBlockSize) {
  Rng rng(3);
  CooEdges edges = ErdosRenyi(12, 60, rng);
  Graph g = ToGraph(std::move(edges));
  GirGraph gir = SumProgram(600);  // Three 256-column tiles.
  FeatureMap features;
  features.vertex["h"] = ops::RandomNormal({12, 600}, 0, 1, rng);
  ExpectAllAgree(gir, g, features);
}

TEST(ExecEdgeCaseTest, MaxFoldMatchesDglBitwiseOnTiesNaNsAndEmptyKeys) {
  // Each column j of vertex v holds pattern[(v + j) % 7], so keys meet +0/-0
  // ties in both orders, NaNs before, between and after finite values, and
  // an all-NaN set; vertex 3 has no in-edges and must read exactly +0. The
  // DGL-like executor walks the same CSR slots in order (one chunk at this
  // size) with `acc < x` replacement: the same bits as std::max(acc, x).
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float pattern[] = {0.0f, -0.0f, nan, -1.0f, nan, -0.0f, 0.0f};
  Graph g = Graph::FromCoo(8, {1, 2, 4, 5, 6, 2, 4, 2, 0, 1, 2, 3, 4, 5, 6, 7, 4, 6},
                           {0, 0, 0, 0, 0, 1, 1, 2, 5, 5, 5, 5, 5, 5, 5, 5, 6, 7});
  ASSERT_EQ(g.in_csr().DegreeOfVertex(3), 0);
  for (const int32_t width : {1, 9}) {
    SCOPED_TRACE(width);
    GirBuilder b;
    b.MarkOutput(AggMax(b.Src("h", width)), "out");
    FeatureMap features;
    Tensor h({8, width});
    for (int64_t v = 0; v < 8; ++v) {
      for (int64_t j = 0; j < width; ++j) {
        h.at(v, j) = pattern[(v + j) % 7];
      }
    }
    features.vertex["h"] = h;
    SeastarExecutor seastar;
    BaselineExecutor dgl({BaselineFlavor::kDglLike});
    const Tensor a = seastar.Run(b.graph(), g, features).outputs.at("out");
    const Tensor c = dgl.Run(b.graph(), g, features).outputs.at("out");
    ASSERT_EQ(a.numel(), c.numel());
    EXPECT_EQ(std::memcmp(a.data(), c.data(), sizeof(float) * a.numel()), 0);
    for (int64_t j = 0; j < width; ++j) {
      EXPECT_EQ(std::bit_cast<uint32_t>(a.at(3, j)), 0u) << "zero-degree key, column " << j;
    }
  }
}

TEST(ExecEdgeCaseTest, OutputIsPlainLeafPassThrough) {
  // Program whose output depends only on a D-typed leaf through vertex ops.
  Graph g = Graph::FromCoo(4, {0, 1}, {1, 2});
  GirBuilder b;
  b.MarkOutput(Tanh(b.Dst("x", 3)), "out");
  FeatureMap features;
  Rng rng(5);
  features.vertex["x"] = ops::RandomNormal({4, 3}, 0, 1, rng);
  SeastarExecutor ex;
  Tensor out = ex.Run(b.graph(), g, features).outputs.at("out");
  EXPECT_TRUE(out.AllClose(ops::Tanh(features.vertex["x"]), 1e-5f));
}

TEST(ExecEdgeCaseTest, StarGraphExtremeSkew) {
  // One vertex holds every edge: worst-case load skew for vertex-parallel
  // execution; all strategies must still agree.
  Graph g = ToGraph(Star(500));
  GirBuilder b;
  Value e = Exp(LeakyRelu(b.Src("eu", 1) + b.Dst("ev", 1), 0.2f));
  b.MarkOutput(AggSum(e / AggSum(e) * b.Src("h", 4)), "out");
  Rng rng(6);
  FeatureMap features;
  features.vertex["eu"] = ops::RandomNormal({500, 1}, 0, 1, rng);
  features.vertex["ev"] = ops::RandomNormal({500, 1}, 0, 1, rng);
  features.vertex["h"] = ops::RandomNormal({500, 4}, 0, 1, rng);
  ExpectAllAgree(b.graph(), g, features);
}

TEST(ExecEdgeCaseTest, MultipleOutputsFromOneProgram) {
  Rng rng(7);
  CooEdges edges = ErdosRenyi(20, 100, rng);
  Graph g = ToGraph(std::move(edges));
  GirBuilder b;
  Value h = b.Src("h", 4);
  b.MarkOutput(AggSum(h), "sum");
  b.MarkOutput(AggMax(h), "max");
  b.MarkOutput(AggMean(h), "mean");
  FeatureMap features;
  features.vertex["h"] = ops::RandomNormal({20, 4}, 0, 1, rng);
  SeastarExecutor ex;
  RunResult result = ex.Run(b.graph(), g, features);
  EXPECT_EQ(result.outputs.size(), 3u);
  // mean * deg == sum where deg > 0.
  const Tensor& sum = result.outputs.at("sum");
  const Tensor& mean = result.outputs.at("mean");
  for (int64_t v = 0; v < 20; ++v) {
    const int64_t deg = g.InDegree(static_cast<int32_t>(v));
    if (deg > 0) {
      EXPECT_NEAR(mean.at(v, 0) * static_cast<float>(deg), sum.at(v, 0), 1e-4);
    }
  }
}

TEST(ExecEdgeCaseTest, SelfLoopOnlyGraphIsIdentitySum) {
  CooEdges edges;
  edges.num_vertices = 6;
  AddSelfLoops(edges);
  Graph g = ToGraph(std::move(edges));
  GirGraph gir = SumProgram(2);
  Rng rng(8);
  FeatureMap features;
  features.vertex["h"] = ops::RandomNormal({6, 2}, 0, 1, rng);
  SeastarExecutor ex;
  Tensor out = ex.Run(gir, g, features).outputs.at("out");
  EXPECT_TRUE(out.AllClose(features.vertex["h"], 1e-6f));
}

}  // namespace
}  // namespace seastar
