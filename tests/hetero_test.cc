// Heterogeneous-graph execution (paper §6.3.5): edge-type-indexed features,
// hierarchical (two-level) aggregation with the type-boundary detection
// trick, and gradients of typed inputs via per-(type, vertex) aggregation.
#include <gtest/gtest.h>

#include <cmath>

#include "src/common/rng.h"
#include "src/exec/baseline_executor.h"
#include "src/exec/seastar_executor.h"
#include "src/gir/autodiff.h"
#include "src/gir/builder.h"
#include "src/gir/passes.h"
#include "src/graph/generators.h"
#include "src/tensor/ops.h"

namespace seastar {
namespace {

Graph HeteroGraph(uint64_t seed, int64_t n, int64_t m, int32_t num_types) {
  Rng rng(seed);
  CooEdges edges = ErdosRenyi(n, m, rng);
  auto types = RandomEdgeTypes(static_cast<int64_t>(edges.src.size()), num_types, rng);
  return Graph::FromCoo(n, std::move(edges.src), std::move(edges.dst), std::move(types),
                        num_types);
}

TEST(HeteroTest, TypedSrcSelectsPerTypeRow) {
  // Graph with one edge 0 -> 1 of type 1; typed feature stack must pick the
  // type-1 plane.
  Graph g = Graph::FromCoo(2, {0}, {1}, {1}, /*num_edge_types=*/3);
  GirBuilder b;
  b.MarkOutput(AggSum(b.TypedSrc("wh", 2)), "out");
  FeatureMap features;
  Tensor stack = Tensor::Zeros({3, 2, 2});
  // Plane 0: all 1s; plane 1: src row = {5, 6}; plane 2: all 9s.
  stack.data()[1 * 4 + 0 * 2 + 0] = 5.0f;
  stack.data()[1 * 4 + 0 * 2 + 1] = 6.0f;
  features.typed_vertex["wh"] = stack;
  SeastarExecutor ex;
  Tensor out = ex.Run(b.graph(), g, features).outputs.at("out");
  EXPECT_FLOAT_EQ(out.at(1, 0), 5.0f);
  EXPECT_FLOAT_EQ(out.at(1, 1), 6.0f);
  EXPECT_FLOAT_EQ(out.at(0, 0), 0.0f);
}

TEST(HeteroTest, RgcnStyleKernelMatchesBaselines) {
  const int32_t num_types = 4;
  Graph g = HeteroGraph(1, 60, 500, num_types);
  GirBuilder b;
  b.MarkOutput(AggSum(b.TypedSrc("wh", 8) * b.Src("norm", 1)), "out");
  Rng rng(2);
  FeatureMap features;
  features.typed_vertex["wh"] =
      ops::RandomNormal({num_types, g.num_vertices(), 8}, 0, 1, rng);
  features.vertex["norm"] = ops::RandomUniform({g.num_vertices(), 1}, 0.5f, 1.5f, rng);

  SeastarExecutor seastar;
  BaselineExecutor dgl({BaselineFlavor::kDglLike});
  BaselineExecutor pyg({BaselineFlavor::kPygLike});
  Tensor a = seastar.Run(b.graph(), g, features).outputs.at("out");
  Tensor c = dgl.Run(b.graph(), g, features).outputs.at("out");
  Tensor d = pyg.Run(b.graph(), g, features).outputs.at("out");
  EXPECT_TRUE(a.AllClose(c, 1e-4f));
  EXPECT_TRUE(a.AllClose(d, 1e-4f));
}

TEST(HeteroTest, RgcnKernelMatchesHandComputedReference) {
  const int32_t num_types = 3;
  Graph g = HeteroGraph(3, 20, 100, num_types);
  GirBuilder b;
  b.MarkOutput(AggSum(b.TypedSrc("wh", 4)), "out");
  Rng rng(4);
  Tensor stack = ops::RandomNormal({num_types, g.num_vertices(), 4}, 0, 1, rng);
  FeatureMap features;
  features.typed_vertex["wh"] = stack;
  SeastarExecutor ex;
  Tensor out = ex.Run(b.graph(), g, features).outputs.at("out");

  Tensor expected = Tensor::Zeros({g.num_vertices(), 4});
  for (int64_t e = 0; e < g.num_edges(); ++e) {
    const int32_t src = g.edge_src()[static_cast<size_t>(e)];
    const int32_t dst = g.edge_dst()[static_cast<size_t>(e)];
    const int32_t t = g.edge_type()[static_cast<size_t>(e)];
    for (int64_t j = 0; j < 4; ++j) {
      expected.at(dst, j) +=
          stack.data()[(static_cast<int64_t>(t) * g.num_vertices() + src) * 4 + j];
    }
  }
  EXPECT_TRUE(out.AllClose(expected, 1e-4f));
}

TEST(HeteroTest, TypeSumThenMaxMatchesReference) {
  const int32_t num_types = 3;
  Graph g = HeteroGraph(5, 25, 120, num_types);
  GirBuilder b;
  b.MarkOutput(b.AggTypeSumThenMax(b.Src("h", 2)), "out");
  Rng rng(6);
  Tensor h = ops::RandomNormal({g.num_vertices(), 2}, 0, 1, rng);
  FeatureMap features;
  features.vertex["h"] = h;

  SeastarExecutor ex;
  Tensor out = ex.Run(b.graph(), g, features).outputs.at("out");

  // Reference: per-type sums, max over types *present* at each vertex.
  const int64_t n = g.num_vertices();
  std::vector<float> sums(static_cast<size_t>(num_types * n * 2), 0.0f);
  std::vector<bool> present(static_cast<size_t>(num_types * n), false);
  for (int64_t e = 0; e < g.num_edges(); ++e) {
    const int32_t src = g.edge_src()[static_cast<size_t>(e)];
    const int32_t dst = g.edge_dst()[static_cast<size_t>(e)];
    const int32_t t = g.edge_type()[static_cast<size_t>(e)];
    present[static_cast<size_t>(t * n + dst)] = true;
    for (int64_t j = 0; j < 2; ++j) {
      sums[static_cast<size_t>((static_cast<int64_t>(t) * n + dst) * 2 + j)] +=
          h.at(src, j);
    }
  }
  for (int64_t v = 0; v < n; ++v) {
    for (int64_t j = 0; j < 2; ++j) {
      float best = 0.0f;
      bool any = false;
      for (int32_t t = 0; t < num_types; ++t) {
        if (!present[static_cast<size_t>(t * n + v)]) {
          continue;
        }
        const float s = sums[static_cast<size_t>((static_cast<int64_t>(t) * n + v) * 2 + j)];
        best = any ? std::max(best, s) : s;
        any = true;
      }
      EXPECT_NEAR(out.at(v, j), best, 1e-4) << v << "," << j;
    }
  }
}

TEST(HeteroTest, TypeSumThenMaxAgreesWithBaseline) {
  Graph g = HeteroGraph(7, 40, 300, 5);
  GirBuilder b;
  b.MarkOutput(b.AggTypeSumThenMax(b.Src("h", 4)), "out");
  Rng rng(8);
  FeatureMap features;
  features.vertex["h"] = ops::RandomNormal({g.num_vertices(), 4}, 0, 1, rng);
  SeastarExecutor seastar;
  BaselineExecutor dgl({BaselineFlavor::kDglLike});
  Tensor a = seastar.Run(b.graph(), g, features).outputs.at("out");
  Tensor c = dgl.Run(b.graph(), g, features).outputs.at("out");
  EXPECT_TRUE(a.AllClose(c, 1e-4f));
}

TEST(HeteroTest, TypedGradMatchesFiniteDifferences) {
  const int32_t num_types = 3;
  Graph g = HeteroGraph(9, 10, 35, num_types);
  GirBuilder b;
  b.MarkOutput(AggSum(b.TypedSrc("wh", 2) * b.Src("norm", 1)), "out");
  PassResult passes = RunStandardPasses(b.graph());
  GirGraph forward = std::move(passes.graph);
  BackwardGir backward = BuildBackward(forward, forward.outputs()[0]);
  OptimizeBackward(&backward);

  Rng rng(10);
  FeatureMap features;
  features.typed_vertex["wh"] = ops::RandomNormal({num_types, g.num_vertices(), 2}, 0, 1, rng);
  features.vertex["norm"] = ops::RandomUniform({g.num_vertices(), 1}, 0.5f, 1.5f, rng);

  SeastarExecutor ex;
  const auto loss = [&] {
    return ops::SumAll(ex.Run(forward, g, features).outputs.at("out"));
  };

  Tensor out = ex.Run(forward, g, features).outputs.at("out");
  FeatureMap bwd = features;
  bwd.vertex[kGradInputKey] = Tensor::Ones(out.shape());
  RunResult result = ex.Run(backward.graph, g, bwd);

  const InputGradInfo* typed_info = nullptr;
  for (const InputGradInfo& info : backward.input_grads) {
    if (info.typed) {
      typed_info = &info;
    }
  }
  ASSERT_NE(typed_info, nullptr);
  const Tensor& grad = result.outputs.at(typed_info->output_name);
  ASSERT_EQ(grad.ndim(), 3);

  Tensor& stack = features.typed_vertex.at("wh");
  const float eps = 1e-2f;
  for (int64_t i = 0; i < stack.numel(); i += 7) {  // Sample every 7th element.
    const float saved = stack.at(i);
    stack.at(i) = saved + eps;
    const float up = loss();
    stack.at(i) = saved - eps;
    const float down = loss();
    stack.at(i) = saved;
    const float numeric = (up - down) / (2.0f * eps);
    EXPECT_NEAR(grad.at(i), numeric, 3e-2f * std::max(1.0f, std::fabs(numeric))) << i;
  }
}

TEST(HeteroTest, TypedGradAgreesAcrossBackends) {
  const int32_t num_types = 4;
  Graph g = HeteroGraph(11, 30, 200, num_types);
  GirBuilder b;
  b.MarkOutput(AggSum(b.TypedSrc("wh", 4)), "out");
  GirGraph forward = b.graph();
  BackwardGir backward = BuildBackward(forward, forward.outputs()[0]);
  OptimizeBackward(&backward);

  Rng rng(12);
  FeatureMap features;
  features.typed_vertex["wh"] = ops::RandomNormal({num_types, g.num_vertices(), 4}, 0, 1, rng);
  FeatureMap bwd = features;
  bwd.vertex[kGradInputKey] =
      ops::RandomNormal({g.num_vertices(), 4}, 0, 1, rng);

  SeastarExecutor seastar;
  BaselineExecutor dgl({BaselineFlavor::kDglLike});
  Tensor a = seastar.Run(backward.graph, g, bwd).outputs.begin()->second;
  Tensor c = dgl.Run(backward.graph, g, bwd).outputs.begin()->second;
  EXPECT_TRUE(a.AllClose(c, 1e-3f));
}

TEST(HeteroTest, TypedRunsSpanningChunksMatchBaseline) {
  // Vertex 0 sends and receives 2 x 3000 edges of 5 types: its slots, sorted
  // by type, run over several edge chunks, so type runs start and end on
  // both sides of chunk boundaries in both CSRs (forward sums and the typed
  // backward alike), and the hub forms a segment of its own. The backward's
  // gradient of `norm` reads the typed row in a source-keyed unit, where the
  // edge's source is the key, not the neighbour.
  const int32_t num_types = 5;
  const int64_t n = 3001;
  Rng rng(13);
  CooEdges edges = ErdosRenyi(n, 6000, rng);
  for (int32_t v = 1; v < n; ++v) {
    for (const bool in : {true, false}) {
      edges.src.push_back(in ? v : 0);
      edges.dst.push_back(in ? 0 : v);
    }
  }
  auto types = RandomEdgeTypes(static_cast<int64_t>(edges.src.size()), num_types, rng);
  Graph g = Graph::FromCoo(n, std::move(edges.src), std::move(edges.dst), std::move(types),
                           num_types);
  FeatureMap features;
  features.vertex["h"] = ops::RandomNormal({n, 4}, 0, 1, rng);
  features.typed_vertex["wh"] = ops::RandomNormal({num_types, n, 4}, 0, 1, rng);
  features.edge["norm"] = ops::RandomUniform({g.num_edges(), 1}, 0.5f, 1.5f, rng);

  SeastarExecutor seastar;
  BaselineExecutor dgl({BaselineFlavor::kDglLike});
  const auto expect_close = [&](const GirGraph& gir, const FeatureMap& inputs) {
    const RunResult a = seastar.Run(gir, g, inputs);
    const RunResult c = dgl.Run(gir, g, inputs);
    for (const auto& [name, tensor] : a.outputs) {
      SCOPED_TRACE(name);
      EXPECT_TRUE(tensor.AllClose(c.outputs.at(name), 1e-3f));
    }
  };
  {
    GirBuilder b;
    b.MarkOutput(b.AggTypeSumThenMax(b.Src("h", 4)), "out");
    expect_close(b.graph(), features);
  }
  GirBuilder b;
  b.MarkOutput(AggSum(b.TypedSrc("wh", 4) * b.Edge("norm", 1)), "out");
  const GirGraph forward = b.graph();
  expect_close(forward, features);
  BackwardGir backward = BuildBackward(forward, forward.outputs()[0]);
  OptimizeBackward(&backward);
  FeatureMap bwd = features;
  bwd.vertex[kGradInputKey] = ops::RandomNormal({n, 4}, 0, 1, rng);
  expect_close(backward.graph, bwd);
}

}  // namespace
}  // namespace seastar
