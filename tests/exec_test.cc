#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/exec/baseline_executor.h"
#include "src/exec/seastar_executor.h"
#include "src/gir/builder.h"
#include "src/graph/generators.h"
#include "src/tensor/ops.h"

namespace seastar {
namespace {

struct AllExecutors {
  SeastarExecutor seastar;
  SeastarExecutor seastar_unfused{[] {
    SeastarExecutorOptions o;
    o.enable_fusion = false;
    return o;
  }()};
  BaselineExecutor dgl{[] {
    BaselineExecutorOptions o;
    o.flavor = BaselineFlavor::kDglLike;
    return o;
  }()};
  BaselineExecutor pyg{[] {
    BaselineExecutorOptions o;
    o.flavor = BaselineFlavor::kPygLike;
    return o;
  }()};
};

// Runs the GIR through all four execution strategies and checks that every
// output tensor agrees.
void ExpectAllExecutorsAgree(const GirGraph& gir, const Graph& graph,
                             const FeatureMap& features, float tol = 1e-4f) {
  AllExecutors ex;
  RunResult a = ex.seastar.Run(gir, graph, features);
  RunResult b = ex.seastar_unfused.Run(gir, graph, features);
  RunResult c = ex.dgl.Run(gir, graph, features);
  RunResult d = ex.pyg.Run(gir, graph, features);
  ASSERT_FALSE(a.outputs.empty());
  for (const auto& [name, tensor] : a.outputs) {
    SCOPED_TRACE(name);
    ASSERT_TRUE(b.outputs.count(name));
    ASSERT_TRUE(c.outputs.count(name));
    ASSERT_TRUE(d.outputs.count(name));
    EXPECT_TRUE(tensor.AllClose(b.outputs.at(name), tol)) << "seastar vs unfused";
    EXPECT_TRUE(tensor.AllClose(c.outputs.at(name), tol)) << "seastar vs dgl-like";
    EXPECT_TRUE(tensor.AllClose(d.outputs.at(name), tol)) << "seastar vs pyg-like";
  }
}

Graph RandomGraph(int64_t n, int64_t m, uint64_t seed, bool skewed = false) {
  Rng rng(seed);
  CooEdges edges = skewed ? Rmat(n, m, rng) : ErdosRenyi(n, m, rng);
  AddSelfLoops(edges);  // Avoid isolated vertices for softmax-style kernels.
  return ToGraph(std::move(edges));
}

FeatureMap RandomVertexFeatures(const Graph& g, std::vector<std::pair<std::string, int64_t>> keys,
                                uint64_t seed) {
  Rng rng(seed);
  FeatureMap features;
  for (const auto& [key, width] : keys) {
    features.vertex[key] = ops::RandomNormal({g.num_vertices(), width}, 0.0f, 1.0f, rng);
  }
  return features;
}

TEST(ExecTest, CopySumOnStarHandComputed) {
  // Star: vertices 1..4 point at vertex 0. out[0] = sum of their features.
  Graph g = ToGraph(Star(5));
  GirBuilder b;
  b.MarkOutput(AggSum(b.Src("h", 2)), "out");
  FeatureMap features;
  features.vertex["h"] = Tensor({5, 2}, {0, 0, 1, 10, 2, 20, 3, 30, 4, 40});

  SeastarExecutor ex;
  RunResult result = ex.Run(b.graph(), g, features);
  const Tensor& out = result.outputs.at("out");
  EXPECT_FLOAT_EQ(out.at(0, 0), 10.0f);
  EXPECT_FLOAT_EQ(out.at(0, 1), 100.0f);
  // Leaves have no in-edges.
  EXPECT_FLOAT_EQ(out.at(3, 0), 0.0f);
}

TEST(ExecTest, ChainShiftHandComputed) {
  // Chain 0->1->2->3: out[v] = h[v-1].
  Graph g = ToGraph(Chain(4));
  GirBuilder b;
  b.MarkOutput(AggSum(b.Src("h", 1)), "out");
  FeatureMap features;
  features.vertex["h"] = Tensor({4, 1}, {5, 6, 7, 8});
  SeastarExecutor ex;
  RunResult result = ex.Run(b.graph(), g, features);
  const Tensor& out = result.outputs.at("out");
  EXPECT_FLOAT_EQ(out.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(out.at(1, 0), 5.0f);
  EXPECT_FLOAT_EQ(out.at(2, 0), 6.0f);
  EXPECT_FLOAT_EQ(out.at(3, 0), 7.0f);
}

TEST(ExecTest, AggToSrcUsesOutEdges) {
  // Star: AggSum to source over v.g means every leaf u receives g[0].
  Graph g = ToGraph(Star(4));
  GirBuilder b;
  b.MarkOutput(AggSum(b.Dst("g", 1), AggTo::kSrc), "out");
  FeatureMap features;
  features.vertex["g"] = Tensor({4, 1}, {42, 0, 0, 0});
  SeastarExecutor ex;
  RunResult result = ex.Run(b.graph(), g, features);
  const Tensor& out = result.outputs.at("out");
  EXPECT_FLOAT_EQ(out.at(0, 0), 0.0f);   // Center has no out-edges.
  EXPECT_FLOAT_EQ(out.at(1, 0), 42.0f);
  EXPECT_FLOAT_EQ(out.at(3, 0), 42.0f);
}

TEST(ExecTest, GcnKernelAllExecutorsAgree) {
  Graph g = RandomGraph(200, 1500, 1);
  GirBuilder b;
  b.MarkOutput(AggSum(b.Src("h", 16) * b.Src("norm", 1)), "out");
  FeatureMap features = RandomVertexFeatures(g, {{"h", 16}, {"norm", 1}}, 2);
  ExpectAllExecutorsAgree(b.graph(), g, features);
}

TEST(ExecTest, GatKernelAllExecutorsAgree) {
  Graph g = RandomGraph(150, 1200, 3);
  GirBuilder b;
  Value e = Exp(LeakyRelu(b.Src("eu", 1) + b.Dst("ev", 1), 0.2f));
  Value a = e / AggSum(e);
  b.MarkOutput(AggSum(a * b.Src("h", 8)), "out");
  FeatureMap features = RandomVertexFeatures(g, {{"eu", 1}, {"ev", 1}, {"h", 8}}, 4);
  ExpectAllExecutorsAgree(b.graph(), g, features);
}

TEST(ExecTest, GatAttentionRowsSumToOne) {
  // Softmax property: per destination, attention weights must sum to 1.
  Graph g = RandomGraph(100, 900, 5);
  GirBuilder b;
  Value e = Exp(LeakyRelu(b.Src("eu", 1) + b.Dst("ev", 1), 0.2f));
  Value a = e / AggSum(e);
  b.MarkOutput(AggSum(a), "attn_total");
  FeatureMap features = RandomVertexFeatures(g, {{"eu", 1}, {"ev", 1}}, 6);
  SeastarExecutor ex;
  RunResult result = ex.Run(b.graph(), g, features);
  const Tensor& totals = result.outputs.at("attn_total");
  for (int64_t v = 0; v < g.num_vertices(); ++v) {
    if (g.InDegree(static_cast<int32_t>(v)) > 0) {
      EXPECT_NEAR(totals.at(v, 0), 1.0f, 1e-4) << v;
    }
  }
}

TEST(ExecTest, EdgeFeaturesAllExecutorsAgree) {
  Graph g = RandomGraph(80, 700, 7);
  GirBuilder b;
  Value w = b.Edge("w", 1);
  b.MarkOutput(AggSum(b.Src("h", 4) * w), "out");
  Rng rng(8);
  FeatureMap features = RandomVertexFeatures(g, {{"h", 4}}, 9);
  features.edge["w"] = ops::RandomNormal({g.num_edges(), 1}, 0.0f, 1.0f, rng);
  ExpectAllExecutorsAgree(b.graph(), g, features);
}

TEST(ExecTest, SkewedGraphAllExecutorsAgree) {
  Graph g = RandomGraph(300, 4000, 10, /*skewed=*/true);
  GirBuilder b;
  Value e = Exp(LeakyRelu(b.Src("eu", 1) + b.Dst("ev", 1), 0.2f));
  Value a = e / AggSum(e);
  b.MarkOutput(AggSum(a * b.Src("h", 4)), "out");
  FeatureMap features = RandomVertexFeatures(g, {{"eu", 1}, {"ev", 1}, {"h", 4}}, 11);
  ExpectAllExecutorsAgree(b.graph(), g, features);
}

TEST(ExecTest, AggMaxAndMeanAgree) {
  Graph g = RandomGraph(120, 1000, 12);
  GirBuilder b;
  Value h = b.Src("h", 8);
  b.MarkOutput(AggMax(h), "max");
  b.MarkOutput(AggMean(h), "mean");
  FeatureMap features = RandomVertexFeatures(g, {{"h", 8}}, 13);
  // Two outputs: run only executors that support multi-output (all do).
  AllExecutors ex;
  RunResult a = ex.seastar.Run(b.graph(), g, features);
  RunResult c = ex.dgl.Run(b.graph(), g, features);
  RunResult d = ex.pyg.Run(b.graph(), g, features);
  EXPECT_TRUE(a.outputs.at("max").AllClose(c.outputs.at("max"), 1e-4f));
  EXPECT_TRUE(a.outputs.at("max").AllClose(d.outputs.at("max"), 1e-4f));
  EXPECT_TRUE(a.outputs.at("mean").AllClose(c.outputs.at("mean"), 1e-4f));
  EXPECT_TRUE(a.outputs.at("mean").AllClose(d.outputs.at("mean"), 1e-4f));
}

TEST(ExecTest, AggMeanMatchesManualDivide) {
  Graph g = RandomGraph(60, 400, 14);
  GirBuilder b1;
  b1.MarkOutput(AggMean(b1.Src("h", 4)), "out");
  GirBuilder b2;
  b2.MarkOutput(AggSum(b2.Src("h", 4)), "out");
  FeatureMap features = RandomVertexFeatures(g, {{"h", 4}}, 15);
  SeastarExecutor ex;
  Tensor mean = ex.Run(b1.graph(), g, features).outputs.at("out");
  Tensor sum = ex.Run(b2.graph(), g, features).outputs.at("out");
  for (int64_t v = 0; v < g.num_vertices(); ++v) {
    const int64_t deg = g.InDegree(static_cast<int32_t>(v));
    for (int64_t j = 0; j < 4; ++j) {
      const float expected = deg > 0 ? sum.at(v, j) / static_cast<float>(deg) : 0.0f;
      EXPECT_NEAR(mean.at(v, j), expected, 1e-4) << v << "," << j;
    }
  }
}

TEST(ExecTest, VertexWiseOnlyProgram) {
  Graph g = RandomGraph(50, 300, 16);
  GirBuilder b;
  Value x = b.Dst("x", 4);
  b.MarkOutput(Tanh(x * 2.0f), "out");
  FeatureMap features = RandomVertexFeatures(g, {{"x", 4}}, 17);
  SeastarExecutor ex;
  RunResult result = ex.Run(b.graph(), g, features);
  Tensor expected = ops::Tanh(ops::MulScalar(features.vertex.at("x"), 2.0f));
  EXPECT_TRUE(result.outputs.at("out").AllClose(expected, 1e-5f));
}

TEST(ExecTest, ScalarConstantsFoldIntoKernels) {
  Graph g = RandomGraph(40, 200, 18);
  GirBuilder b;
  Value h = b.Src("h", 4);
  b.MarkOutput(AggSum(h * 0.5f + 1.0f), "out");
  FeatureMap features = RandomVertexFeatures(g, {{"h", 4}}, 19);
  ExpectAllExecutorsAgree(b.graph(), g, features);
}

TEST(ExecTest, UnsortedGraphGivesSameResults) {
  Rng rng(20);
  CooEdges edges = ErdosRenyi(100, 800, rng);
  CooEdges copy = edges;
  GraphOptions unsorted;
  unsorted.sort_by_degree = false;
  Graph sorted_g = ToGraph(std::move(edges));
  Graph unsorted_g = ToGraph(std::move(copy), {}, 1, unsorted);
  GirBuilder b;
  b.MarkOutput(AggSum(b.Src("h", 8) * b.Src("norm", 1)), "out");
  FeatureMap features = RandomVertexFeatures(sorted_g, {{"h", 8}, {"norm", 1}}, 21);
  SeastarExecutor ex;
  Tensor a = ex.Run(b.graph(), sorted_g, features).outputs.at("out");
  Tensor c = ex.Run(b.graph(), unsorted_g, features).outputs.at("out");
  EXPECT_TRUE(a.AllClose(c, 1e-5f));
}

TEST(ExecTest, WideFeaturesExerciseMultiChunkGroups) {
  Graph g = RandomGraph(60, 500, 22);
  GirBuilder b;
  b.MarkOutput(AggSum(b.Src("h", 300)), "out");  // Wider than one block chunk.
  FeatureMap features = RandomVertexFeatures(g, {{"h", 300}}, 23);
  ExpectAllExecutorsAgree(b.graph(), g, features);
}

TEST(ExecTest, BinaryReduceFusionMatchesUnfusedBaseline) {
  Graph g = RandomGraph(100, 900, 24);
  GirBuilder b;
  b.MarkOutput(AggSum(b.Src("h", 8) * b.Src("norm", 1)), "out");
  FeatureMap features = RandomVertexFeatures(g, {{"h", 8}, {"norm", 1}}, 25);
  // DGL applies BinaryReduce; PyG, which never fuses, is the unfused reference.
  const BaselineExecutor dgl({BaselineFlavor::kDglLike});
  const BaselineExecutor pyg({BaselineFlavor::kPygLike});
  Tensor a = dgl.Run(b.graph(), g, features).outputs.at("out");
  Tensor c = pyg.Run(b.graph(), g, features).outputs.at("out");
  EXPECT_TRUE(a.AllClose(c, 1e-4f));
}

TEST(ExecTest, BinaryReduceFusionSkipsMaterialization) {
  Graph g = RandomGraph(100, 900, 26);
  GirBuilder b;
  Value prod = b.Src("h", 8) * b.Src("norm", 1);
  b.MarkOutput(AggSum(prod), "out");
  FeatureMap features = RandomVertexFeatures(g, {{"h", 8}, {"norm", 1}}, 27);
  BaselineExecutor dgl({BaselineFlavor::kDglLike});
  RunResult result = dgl.Run(b.graph(), g, features);
  // The fused binary op must not appear in the saved map.
  EXPECT_EQ(result.saved->count(prod.id()), 0u);
  BaselineExecutor pyg({BaselineFlavor::kPygLike});
  RunResult pyg_result = pyg.Run(b.graph(), g, features);
  // PyG materializes it (never fuses).
  EXPECT_EQ(pyg_result.saved->count(prod.id()), 1u);
}

TEST(ExecTest, PygMaterializesGatheredOperands) {
  Graph g = RandomGraph(100, 900, 28);
  GirBuilder b;
  b.MarkOutput(AggSum(Exp(b.Src("h", 8))), "out");
  FeatureMap features = RandomVertexFeatures(g, {{"h", 8}}, 29);
  BaselineExecutor pyg({BaselineFlavor::kPygLike});
  BaselineExecutor dgl({BaselineFlavor::kDglLike});
  RunResult pr = pyg.Run(b.graph(), g, features);
  RunResult dr = dgl.Run(b.graph(), g, features);
  uint64_t pyg_bytes = 0;
  for (const auto& [id, tensor] : *pr.saved) {
    pyg_bytes += tensor.nbytes();
  }
  uint64_t dgl_bytes = 0;
  for (const auto& [id, tensor] : *dr.saved) {
    dgl_bytes += tensor.nbytes();
  }
  // The gather of h onto edges costs PyG an extra [E, 8] tensor.
  EXPECT_GT(pyg_bytes, dgl_bytes);
}

}  // namespace
}  // namespace seastar
