// Tests for the specialized hot-path kernels added for steady-state training:
// the compile-time lowering of fused units onto the segment launch (edge
// prologue + row-kernel reduction) and its differential checks, the
// register-blocked GEMM kernels, the batched dropout mask, and the
// scalar-broadcast elementwise forms. Every fast form is checked against an
// independent reference (baseline executors, naive triple loops, the
// per-element RNG path).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/core/program.h"
#include "src/exec/baseline_executor.h"
#include "src/exec/compiled_program.h"
#include "src/exec/seastar_executor.h"
#include "src/gir/autodiff.h"
#include "src/gir/builder.h"
#include "src/graph/generators.h"
#include "src/tensor/ops.h"

namespace seastar {
namespace {

Graph RandomGraph(int64_t n, int64_t m, uint64_t seed, bool skewed = false) {
  Rng rng(seed);
  CooEdges edges = skewed ? Rmat(n, m, rng) : ErdosRenyi(n, m, rng);
  AddSelfLoops(edges);
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

// The compiled units of `gir` (fusion on).
std::shared_ptr<CompiledProgram> Compiled(const GirGraph& gir) {
  return CompileProgram(gir, FusionOptions{});
}

// The unit of a single-unit program.
CompiledUnit OnlyUnit(const GirGraph& gir) {
  auto program = Compiled(gir);
  EXPECT_EQ(program->units.size(), 1u);
  return program->units.at(0);
}

// GAT's attention program (paper Fig. 3) with `width`-wide features.
VertexProgram GatProgram(int32_t width) {
  GirBuilder b;
  Value e = Exp(LeakyRelu(b.Src("eu", 1) + b.Dst("ev", 1), 0.2f));
  Value a = e / AggSum(e);
  b.MarkOutput(AggSum(a * b.Src("h", width)), "out");
  return VertexProgram::Compile(std::move(b));
}

FeatureMap GatFeatures(const Graph& g, int64_t width, uint64_t seed) {
  Rng rng(seed);
  FeatureMap features;
  features.vertex["eu"] = ops::RandomNormal({g.num_vertices(), 1}, 0.0f, 0.5f, rng);
  features.vertex["ev"] = ops::RandomNormal({g.num_vertices(), 1}, 0.0f, 0.5f, rng);
  features.vertex["h"] = ops::RandomNormal({g.num_vertices(), width}, 0.0f, 1.0f, rng);
  return features;
}

// Backward features: the forward inputs plus an incoming output gradient.
FeatureMap WithOutputGrad(FeatureMap features, int64_t rows, int64_t width, uint64_t seed) {
  Rng rng(seed);
  features.vertex[kGradInputKey] = ops::RandomNormal({rows, width}, 0.0f, 1.0f, rng);
  return features;
}

// Checks the seastar executor against the independent baseline
// implementations (which share only the pointwise op definitions).
void ExpectMatchesBaselines(const GirGraph& gir, const Graph& graph, const FeatureMap& features,
                            float tol = 1e-4f) {
  SeastarExecutor seastar;
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
  RunResult a = seastar.Run(gir, graph, features);
  RunResult c = dgl.Run(gir, graph, features);
  RunResult d = pyg.Run(gir, graph, features);
  ASSERT_FALSE(a.outputs.empty());
  for (const auto& [name, tensor] : a.outputs) {
    SCOPED_TRACE(name);
    ASSERT_TRUE(c.outputs.count(name));
    ASSERT_TRUE(d.outputs.count(name));
    EXPECT_TRUE(tensor.AllClose(c.outputs.at(name), tol)) << "seastar vs dgl-like";
    EXPECT_TRUE(tensor.AllClose(d.outputs.at(name), tol)) << "seastar vs pyg-like";
  }
}

// ---- Lowering classification ----------------------------------------------
// Every sum/mean unit lowers to an edge prologue plus one row-kernel
// reduction; the old copy-sum and mul-sum shapes are its empty-prologue and
// folded-Mul cases.

TEST(FastPathTest, PlainAggSumClassifiesAsCopySum) {
  GirBuilder b;
  b.MarkOutput(AggSum(b.Src("h", 8)), "out");
  const CompiledUnit unit = OnlyUnit(b.graph());
  EXPECT_TRUE(unit.lowered);
  EXPECT_EQ(unit.reduce, Reduce::kAdd);
  EXPECT_TRUE(unit.edge.empty());
  EXPECT_EQ(unit.reduce_x.src, Src::kNbrRow);
}

TEST(FastPathTest, WeightedAggSumClassifiesAsMulSum) {
  // GCN's aggregation shape: per-edge product feeding a sum.
  GirBuilder b;
  b.MarkOutput(AggSum(b.Src("h", 8) * b.Src("norm", 1)), "out");
  const CompiledUnit unit = OnlyUnit(b.graph());
  EXPECT_TRUE(unit.lowered);
  EXPECT_EQ(unit.reduce, Reduce::kAxpy);
  EXPECT_TRUE(unit.edge.empty()) << "the Mul folds into the reduction";
  EXPECT_EQ(unit.reduce_x.width, 8);
  EXPECT_EQ(unit.reduce_y.width, 1);
}

TEST(FastPathTest, AggMeanAlsoSpecializes) {
  // Mean lowers to sum plus a post-division, so the edge loop is identical.
  GirBuilder b;
  b.MarkOutput(AggMean(b.Src("h", 4)), "out");
  const CompiledUnit unit = OnlyUnit(b.graph());
  EXPECT_TRUE(unit.lowered);
  EXPECT_EQ(unit.reduce, Reduce::kAdd);
}

TEST(FastPathTest, MaxAndMultiOpUnitsStayInterpreted) {
  {
    GirBuilder b;
    b.MarkOutput(AggMax(b.Src("h", 4)), "out");
    EXPECT_FALSE(OnlyUnit(b.graph()).lowered) << "max aggregation";
  }
  {
    GirBuilder b;
    b.MarkOutput(b.AggTypeSumThenMax(b.Src("h", 4)), "out");
    EXPECT_FALSE(OnlyUnit(b.graph()).lowered) << "typed aggregation";
  }
  {
    // u.h * 2 is consumed outside its unit, so the edge loop stores it to
    // the neighbour's row — concurrent segments would race on that row.
    GirBuilder b;
    Value scaled = b.Src("h", 4) * 2.0f;
    b.MarkOutput(AggSum(scaled + b.Dst("c", 4)), "out");
    b.MarkOutput(scaled, "scaled");
    bool any_nbr_store = false;
    const auto program = Compiled(b.graph());
    for (const CompiledUnit& unit : program->units) {
      for (const Instr& instr : unit.edge) {
        if (instr.mat == MatKind::kNbrRow) {
          any_nbr_store = true;
          EXPECT_FALSE(unit.lowered) << "nbr-row materialization";
        }
      }
    }
    EXPECT_TRUE(any_nbr_store);
  }
  {
    // Chained edge ops are a prologue, not an obstacle.
    GirBuilder b;
    b.MarkOutput(AggSum(Exp(b.Src("h", 4) * b.Src("w", 1))), "out");
    const CompiledUnit unit = OnlyUnit(b.graph());
    EXPECT_TRUE(unit.lowered);
    EXPECT_EQ(unit.reduce, Reduce::kAdd);
    EXPECT_EQ(unit.edge.size(), 2u);
  }
}

TEST(FastPathTest, EveryGatUnitClassifiesAsLowered) {
  const VertexProgram program = GatProgram(8);
  const auto forward = Compiled(program.forward());
  const auto backward = Compiled(program.backward().graph);
  EXPECT_EQ(forward->units.size(), 2u);
  EXPECT_EQ(backward->units.size(), 6u);
  for (const auto* compiled : {forward.get(), backward.get()}) {
    for (size_t i = 0; i < compiled->units.size(); ++i) {
      EXPECT_TRUE(compiled->units[i].lowered) << compiled->unit_labels[i];
    }
  }
  // Forward: Add+LeakyRelu+Exp+AggSum keeps its three ops as the prologue;
  // Div+Mul+AggSum keeps Div and folds the Mul into an axpy.
  EXPECT_EQ(forward->units[0].edge.size(), 3u);
  EXPECT_EQ(forward->units[0].reduce, Reduce::kAdd);
  EXPECT_EQ(forward->units[1].edge.size(), 1u);
  EXPECT_EQ(forward->units[1].reduce, Reduce::kAxpy);
}

// ---- Lowered units vs the baselines ---------------------------------------------------

TEST(FastPathTest, CopySumMatchesBaselinesOnRandomGraphs) {
  for (bool skewed : {false, true}) {
    Graph g = RandomGraph(200, 1400, skewed ? 21 : 22, skewed);
    for (int64_t width : {1, 7, 16}) {  // 1 exercises the broadcast variant.
      SCOPED_TRACE(width);
      GirBuilder b;
      b.MarkOutput(AggSum(b.Src("h", static_cast<int32_t>(width))), "out");
      ExpectMatchesBaselines(b.graph(), g, RandomVertexFeatures(g, {{"h", width}}, 31 + width));
    }
  }
}

TEST(FastPathTest, MulSumMatchesBaselinesAcrossOperandWidths) {
  Graph g = RandomGraph(180, 1200, 41);
  struct Case {
    int64_t wa, wb;
  };
  // vector*scalar, scalar*vector, vector*vector — all three slot variants.
  for (const Case& c : {Case{8, 1}, Case{1, 8}, Case{8, 8}}) {
    SCOPED_TRACE(c.wa * 100 + c.wb);
    GirBuilder b;
    b.MarkOutput(AggSum(b.Src("a", static_cast<int32_t>(c.wa)) *
                        b.Src("b", static_cast<int32_t>(c.wb))),
                 "out");
    ExpectMatchesBaselines(b.graph(), g,
                           RandomVertexFeatures(g, {{"a", c.wa}, {"b", c.wb}}, 51));
  }
}

TEST(FastPathTest, MulSumWithFixedDstOperandMatchesBaselines) {
  // v.deg-style operand: constant across the key vertex's edge loop, read
  // through the chunk's slot-to-key map.
  Graph g = RandomGraph(160, 1100, 61);
  GirBuilder b;
  b.MarkOutput(AggSum(b.Src("h", 8) * b.Dst("scale", 1)), "out");
  ExpectMatchesBaselines(b.graph(), g, RandomVertexFeatures(g, {{"h", 8}, {"scale", 1}}, 71));
}

TEST(FastPathTest, CopySumOnStarHandComputed) {
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
  EXPECT_FLOAT_EQ(out.at(3, 0), 0.0f);
}

TEST(FastPathTest, LoweredUnitsMatchBaselinesWithZeroDegreeVertices) {
  // No self loops and |E| < |V|: many keys have no slots at all, so their
  // sum is 0, their mean is 0 (not NaN) and post ops still run.
  Rng rng(81);
  Graph g = ToGraph(ErdosRenyi(300, 250, rng));
  int64_t isolated = 0;
  for (int64_t k = 0; k < g.num_vertices(); ++k) {
    isolated += g.in_csr().DegreeAtPosition(k) == 0;
  }
  ASSERT_GT(isolated, 50);
  FeatureMap features = RandomVertexFeatures(g, {{"h", 8}, {"c", 1}, {"s", 1}}, 83);
  {
    GirBuilder b;
    b.MarkOutput(AggMean(b.Src("h", 8) - b.Dst("c", 1)), "out");
    ExpectMatchesBaselines(b.graph(), g, features);
  }
  {
    // Post ops on the accumulator and a key row.
    GirBuilder b;
    b.MarkOutput(Sigmoid(AggSum(b.Dst("s", 1) * b.Src("h", 8))) * b.Dst("s", 1), "out");
    ASSERT_FALSE(OnlyUnit(b.graph()).post.empty());
    ExpectMatchesBaselines(b.graph(), g, features);
  }
  const VertexProgram gat = GatProgram(8);
  FeatureMap gat_features = GatFeatures(g, 8, 85);
  ExpectMatchesBaselines(gat.forward(), g, gat_features);
  ExpectMatchesBaselines(gat.backward().graph, g,
                         WithOutputGrad(gat_features, g.num_vertices(), 8, 87));
}

TEST(FastPathTest, LoweredUnitsMatchBaselinesWithHubInSingletonSegment) {
  // A star hub whose in-degree exceeds one edge chunk: its key batch holds
  // it alone, its slots run over several chunks, and the tile plan gives it
  // a segment of its own.
  Rng rng(91);
  CooEdges edges = ErdosRenyi(3000, 6000, rng);
  const CooEdges star = Star(3000);
  edges.src.insert(edges.src.end(), star.src.begin(), star.src.end());
  edges.dst.insert(edges.dst.end(), star.dst.begin(), star.dst.end());
  Graph g = ToGraph(std::move(edges));
  const VertexProgram gat = GatProgram(16);
  const auto forward = Compiled(gat.forward());
  const Csr& csr = g.in_csr();
  ASSERT_GT(csr.DegreeAtPosition(0), forward->units[1].batch_edges);
  const std::shared_ptr<const TilePlan> plan = forward->TilingFor(1, csr, 4);
  ASSERT_GE(plan->num_segments(), 2);
  EXPECT_EQ(plan->bounds[1], 1) << "the hub (position 0) is a singleton segment";

  FeatureMap features = GatFeatures(g, 16, 93);
  ExpectMatchesBaselines(gat.forward(), g, features);
  ExpectMatchesBaselines(gat.backward().graph, g,
                         WithOutputGrad(features, g.num_vertices(), 16, 95));
  GirBuilder b;
  b.MarkOutput(AggSum(b.Src("eu", 1) * b.Src("h", 16)), "out");
  ExpectMatchesBaselines(b.graph(), g, features);
}

TEST(FastPathTest, LoweredBroadcastsMatchBaselines) {
  // Width-1 <-> w broadcasts on either side of prologue ops and of the
  // reduction, with edge, key and neighbour rows, and a vertex-only unit.
  Graph g = RandomGraph(220, 1500, 101, /*skewed=*/true);
  Rng rng(103);
  FeatureMap features = RandomVertexFeatures(g, {{"h", 8}, {"s", 1}}, 105);
  features.edge["e"] = ops::RandomNormal({g.num_edges(), 1}, 0.0f, 1.0f, rng);
  features.edge["f"] = ops::RandomNormal({g.num_edges(), 8}, 0.0f, 1.0f, rng);
  std::vector<std::function<Value(GirBuilder&)>> programs = {
      [](GirBuilder& b) { return AggSum(b.Dst("s", 1) - b.Src("h", 8)); },
      [](GirBuilder& b) { return AggSum(b.Src("h", 8) / Exp(b.Edge("e", 1))); },
      [](GirBuilder& b) { return AggSum(Exp(b.Src("s", 1)) * b.Src("h", 8)); },
      [](GirBuilder& b) { return AggSum(b.Edge("f", 8) * b.Src("h", 8)); },
      [](GirBuilder& b) { return AggMean(Tanh(b.Edge("f", 8) + b.Dst("s", 1))); },
      [](GirBuilder& b) { return AggSum(b.Edge("e", 1) * b.Dst("h", 8)); },
      // Vertex-only: a lowered unit with no edge loop at all.
      [](GirBuilder& b) { return Tanh(b.Dst("h", 8)) * b.Dst("s", 1); },
  };
  for (size_t i = 0; i < programs.size(); ++i) {
    SCOPED_TRACE(i);
    GirBuilder b;
    b.MarkOutput(programs[i](b), "out");
    const auto program = Compiled(b.graph());
    for (const CompiledUnit& unit : program->units) {
      EXPECT_TRUE(unit.lowered);
    }
    ExpectMatchesBaselines(b.graph(), g, features);
  }
}

TEST(FastPathTest, LoweredDotProductAndEdgeOnlyUnitsMatchBaselines) {
  // GAT's backward holds both: the attention-gradient unit computes
  // DotProduct(grad_out, h) per edge, and the Div unit aggregates nothing.
  const VertexProgram gat = GatProgram(8);
  const GirGraph& backward = gat.backward().graph;
  const auto compiled = Compiled(backward);
  bool has_dot = false;
  bool has_edge_only = false;
  for (const CompiledUnit& unit : compiled->units) {
    ASSERT_TRUE(unit.lowered);
    has_edge_only = has_edge_only || (unit.aggs.empty() && unit.needs_edge_loop);
    for (const Instr& instr : unit.edge) {
      has_dot = has_dot || instr.kind == OpKind::kDotProduct;
    }
  }
  EXPECT_TRUE(has_dot);
  EXPECT_TRUE(has_edge_only);
  for (bool skewed : {false, true}) {
    Graph g = RandomGraph(250, 2000, skewed ? 111 : 113, skewed);
    FeatureMap features = WithOutputGrad(GatFeatures(g, 8, 115), g.num_vertices(), 8, 117);
    ExpectMatchesBaselines(backward, g, features);
  }
}

// ---- Register-blocked GEMM --------------------------------------------------

Tensor NaiveMatmul(const Tensor& a, const Tensor& b) {
  const int64_t n = a.shape()[0], k = a.shape()[1], m = b.shape()[1];
  Tensor out = Tensor::Zeros({n, m});
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < m; ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) {
        acc += a.at(i, kk) * b.at(kk, j);
      }
      out.data()[i * m + j] = acc;
    }
  }
  return out;
}

TEST(GemmTest, MatmulMatchesNaiveAcrossPanelTails) {
  Rng rng(101);
  // Widths chosen to hit: all-scalar tail (1, 7), exactly one 8-panel (8),
  // 32-panel only (32), and a mix of 32 + 8 + scalar (53).
  for (int64_t m : {1, 7, 8, 32, 53}) {
    SCOPED_TRACE(m);
    Tensor a = ops::RandomNormal({37, 29}, 0.0f, 1.0f, rng);
    Tensor b = ops::RandomNormal({29, m}, 0.0f, 1.0f, rng);
    EXPECT_TRUE(ops::Matmul(a, b).AllClose(NaiveMatmul(a, b), 1e-4f));
  }
}

TEST(GemmTest, MatmulTransposeBMatchesExplicitTranspose) {
  Rng rng(103);
  Tensor a = ops::RandomNormal({45, 31}, 0.0f, 1.0f, rng);
  Tensor bt = ops::RandomNormal({23, 31}, 0.0f, 1.0f, rng);  // b = bt^T.
  Tensor fast = ops::MatmulTransposeB(a, bt);
  Tensor ref = ops::Matmul(a, ops::Transpose(bt));
  ASSERT_EQ(fast.shape(), ref.shape());
  EXPECT_TRUE(fast.AllClose(ref, 0.0f));  // Same kernel, must be bitwise.
}

TEST(GemmTest, MatmulTransposeAMatchesNaive) {
  Rng rng(107);
  Tensor at = ops::RandomNormal({29, 37}, 0.0f, 1.0f, rng);  // a = at^T.
  Tensor b = ops::RandomNormal({29, 21}, 0.0f, 1.0f, rng);
  Tensor ref = NaiveMatmul(ops::Transpose(at), b);
  EXPECT_TRUE(ops::MatmulTransposeA(at, b).AllClose(ref, 1e-4f));
}

// ---- Batched dropout mask ---------------------------------------------------

TEST(DropoutMaskTest, BatchedFillMatchesPerElementBernoulliDrawForDraw) {
  // Checkpoint determinism depends on the batched fill consuming exactly the
  // draws the old per-element path consumed, and deciding each the same way.
  // The fill compares bits >> 11 against ceil(p * 2^53); cover products
  // p * 2^53 that are integers (0.5, any float p, 0.5 + 2^-53) and that are
  // not (0.37, 0.6, 1/3, 0.1 as doubles).
  const int64_t n = 1000;
  for (const double p :
       {0.37, 0.5, 0.6, 1.0 / 3.0, 0.1, static_cast<double>(0.6f), 0.5 + 0x1.0p-53}) {
    SCOPED_TRACE(p);
    const float keep = 1.0f / (1.0f - static_cast<float>(p));
    Rng batched(12345), reference(12345);

    std::vector<float> mask(n);
    batched.FillDropoutMask(mask.data(), n, p, keep);
    int64_t dropped = 0;
    for (int64_t i = 0; i < n; ++i) {
      const float expected = reference.NextBernoulli(p) ? 0.0f : keep;
      ASSERT_EQ(mask[i], expected) << "element " << i;
      dropped += mask[i] == 0.0f;
    }
    // Streams must be in sync afterwards, or a resumed run would diverge.
    const RngState got = batched.SaveState();
    const RngState want = reference.SaveState();
    for (int w = 0; w < 4; ++w) {
      EXPECT_EQ(got.words[w], want.words[w]);
    }
    // Sanity: the drop rate is in the right ballpark.
    EXPECT_NEAR(static_cast<double>(dropped) / static_cast<double>(n), p, 0.08);
  }
}

TEST(DropoutMaskTest, ThresholdIsExactAtTheDrawnValue) {
  // For the next draw u = x * 2^-53: p = u keeps (u < p is false), the next
  // double above u drops, the one below keeps.
  for (const uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Rng peek(seed);
    const double u = peek.NextDouble();
    for (const auto& [p, dropped] : {std::pair{u, false},
                                     std::pair{std::nextafter(u, 1.0), true},
                                     std::pair{std::nextafter(u, 0.0), false}}) {
      if (p <= 0.0) {
        continue;  // A degenerate p draws nothing.
      }
      Rng rng(seed);
      float mask = -1.0f;
      rng.FillDropoutMask(&mask, 1, p, 2.0f);
      EXPECT_EQ(mask, dropped ? 0.0f : 2.0f) << "seed " << seed << " p " << p;
    }
  }
}

TEST(DropoutMaskTest, DegenerateProbabilitiesConsumeNoDraws) {
  Rng a(7), b(7);
  std::vector<float> mask(64);
  a.FillDropoutMask(mask.data(), 64, 0.0, 2.0f);
  for (float v : mask) {
    EXPECT_EQ(v, 2.0f);
  }
  a.FillDropoutMask(mask.data(), 64, 1.0, 2.0f);
  for (float v : mask) {
    EXPECT_EQ(v, 0.0f);
  }
  EXPECT_EQ(a.NextUint64(), b.NextUint64());  // NextBernoulli(0/1) draws nothing.
}

// ---- Scalar broadcast in binary elementwise ---------------------------------

TEST(BroadcastTest, ScalarOnEitherSideOfNonCommutativeOps) {
  Tensor scalar({1}, {6.0f});
  Tensor vec({3}, {1.0f, 2.0f, 3.0f});

  Tensor sub_left = ops::Sub(scalar, vec);  // 6 - x.
  ASSERT_EQ(sub_left.numel(), 3);
  EXPECT_FLOAT_EQ(sub_left.at(0), 5.0f);
  EXPECT_FLOAT_EQ(sub_left.at(1), 4.0f);
  EXPECT_FLOAT_EQ(sub_left.at(2), 3.0f);

  Tensor sub_right = ops::Sub(vec, scalar);  // x - 6.
  EXPECT_FLOAT_EQ(sub_right.at(0), -5.0f);
  EXPECT_FLOAT_EQ(sub_right.at(2), -3.0f);

  Tensor div_left = ops::Div(scalar, vec);  // 6 / x.
  EXPECT_FLOAT_EQ(div_left.at(0), 6.0f);
  EXPECT_FLOAT_EQ(div_left.at(1), 3.0f);
  EXPECT_FLOAT_EQ(div_left.at(2), 2.0f);

  Tensor div_right = ops::Div(vec, scalar);  // x / 6.
  EXPECT_FLOAT_EQ(div_right.at(1), 2.0f / 6.0f);
}

}  // namespace
}  // namespace seastar
