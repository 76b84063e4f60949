// Tests for the specialized hot-path kernels added for steady-state training:
// the compile-time lowering of fused units onto the segment launch (edge
// prologue + row-kernel reduction) and its differential checks, the
// register-blocked GEMM kernels, the lane-parallel dropout, and the
// scalar-broadcast elementwise forms. Every fast form is checked against an
// independent reference (baseline executors, naive triple loops, the
// per-element RNG path).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/core/program.h"
#include "src/exec/baseline_executor.h"
#include "src/exec/compiled_program.h"
#include "src/exec/pointwise.h"
#include "src/exec/seastar_executor.h"
#include "src/gir/autodiff.h"
#include "src/gir/builder.h"
#include "src/graph/generators.h"
#include "src/tensor/ops.h"
#include "src/tensor/simd.h"

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
                            float tol = 1e-4f, const SeastarExecutorOptions& options = {}) {
  SeastarExecutor seastar(options);
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
// Every unit lowers to an edge prologue plus one row-kernel reduction per
// aggregation; the old copy-sum and mul-sum shapes are its empty-prologue and
// folded-Mul cases.

TEST(FastPathTest, PlainAggSumClassifiesAsCopySum) {
  GirBuilder b;
  b.MarkOutput(AggSum(b.Src("h", 8)), "out");
  const CompiledUnit unit = OnlyUnit(b.graph());
  ASSERT_EQ(unit.aggs.size(), 1u);
  EXPECT_EQ(unit.aggs[0].reduce, Reduce::kAdd);
  EXPECT_TRUE(unit.edge.empty());
  EXPECT_EQ(unit.aggs[0].x.src, Src::kNbrRow);
}

TEST(FastPathTest, WeightedAggSumClassifiesAsMulSum) {
  // GCN's aggregation shape: per-edge product feeding a sum.
  GirBuilder b;
  b.MarkOutput(AggSum(b.Src("h", 8) * b.Src("norm", 1)), "out");
  const CompiledUnit unit = OnlyUnit(b.graph());
  ASSERT_EQ(unit.aggs.size(), 1u);
  EXPECT_EQ(unit.aggs[0].reduce, Reduce::kAxpy);
  EXPECT_TRUE(unit.edge.empty()) << "the Mul folds into the reduction";
  EXPECT_EQ(unit.aggs[0].x.width, 8);
  EXPECT_EQ(unit.aggs[0].y.width, 1);
}

TEST(FastPathTest, AggMeanAlsoSpecializes) {
  // Mean lowers to sum plus a post-division, so the edge loop is identical.
  GirBuilder b;
  b.MarkOutput(AggMean(b.Src("h", 4)), "out");
  const CompiledUnit unit = OnlyUnit(b.graph());
  ASSERT_EQ(unit.aggs.size(), 1u);
  EXPECT_EQ(unit.aggs[0].reduce, Reduce::kAdd);
}

TEST(FastPathTest, MaxTypedMultiAggAndNbrStoreUnitsLower) {
  {
    GirBuilder b;
    b.MarkOutput(AggMax(b.Src("h", 4)), "out");
    const CompiledUnit unit = OnlyUnit(b.graph());
    ASSERT_EQ(unit.aggs.size(), 1u);
    EXPECT_EQ(unit.aggs[0].reduce, Reduce::kMax);
    EXPECT_TRUE(unit.edge.empty());
  }
  {
    // The inner per-type sum never folds a Mul, so max units keep the bits
    // of rounding each product.
    GirBuilder b;
    b.MarkOutput(b.AggTypeSumThenMax(b.Src("h", 4) * b.Src("s", 1)), "out");
    const CompiledUnit unit = OnlyUnit(b.graph());
    ASSERT_EQ(unit.aggs.size(), 1u);
    EXPECT_EQ(unit.aggs[0].reduce, Reduce::kAdd);
    EXPECT_EQ(unit.edge.size(), 1u);
  }
  {
    // R-GCN's shape: the typed row and the edge norm fold into an axpy, and
    // the chunk builds the typed slot index.
    GirBuilder b;
    b.MarkOutput(AggSum(b.TypedSrc("wh", 8) * b.Edge("norm", 1)), "out");
    const CompiledUnit unit = OnlyUnit(b.graph());
    ASSERT_EQ(unit.aggs.size(), 1u);
    EXPECT_EQ(unit.aggs[0].reduce, Reduce::kAxpy);
    EXPECT_EQ(unit.aggs[0].x.src, Src::kTypedRow);
    EXPECT_TRUE(unit.needs_typed_slots);
  }
  {
    // Two aggregations of one orientation share a unit, each with its own
    // reducer; the product read by both stays in the prologue.
    GirBuilder b;
    Value scaled = b.Src("h", 4) * b.Src("s", 1);
    Value sum = AggSum(scaled);
    b.MarkOutput(sum + AggMax(scaled), "out");
    const CompiledUnit unit = OnlyUnit(b.graph());
    ASSERT_EQ(unit.aggs.size(), 2u);
    EXPECT_EQ(unit.aggs[0].reduce, Reduce::kAdd);
    EXPECT_EQ(unit.aggs[1].reduce, Reduce::kMax);
    EXPECT_EQ(unit.edge.size(), 1u);
  }
  {
    // u.h * 2 is consumed outside its unit, so the prologue scatters it to
    // the neighbour's row.
    GirBuilder b;
    Value scaled = b.Src("h", 4) * 2.0f;
    b.MarkOutput(AggSum(scaled + b.Dst("c", 4)), "out");
    b.MarkOutput(scaled, "scaled");
    bool any_nbr_store = false;
    const auto program = Compiled(b.graph());
    for (const CompiledUnit& unit : program->units) {
      for (const Instr& instr : unit.edge) {
        any_nbr_store = any_nbr_store || instr.mat == MatKind::kNbrRow;
      }
    }
    EXPECT_TRUE(any_nbr_store);
  }
  {
    // Chained edge ops are a prologue, not an obstacle.
    GirBuilder b;
    b.MarkOutput(AggSum(Exp(b.Src("h", 4) * b.Src("w", 1))), "out");
    const CompiledUnit unit = OnlyUnit(b.graph());
    ASSERT_EQ(unit.aggs.size(), 1u);
    EXPECT_EQ(unit.aggs[0].reduce, Reduce::kAdd);
    EXPECT_EQ(unit.edge.size(), 2u);
  }
}

TEST(FastPathTest, EveryGatUnitClassifiesAsLowered) {
  const VertexProgram program = GatProgram(8);
  const auto forward = Compiled(program.forward());
  const auto backward = Compiled(program.backward().graph);
  EXPECT_EQ(forward->units.size(), 2u);
  // The backward's Div(Exp, AggSum) is recomputed in its one reader, the
  // DotProduct unit, instead of running as an edge-only unit.
  EXPECT_EQ(backward->units.size(), 5u);
  // Forward: Add+LeakyRelu+Exp+AggSum keeps its three ops as the prologue;
  // Div+Mul+AggSum keeps Div and folds the Mul into an axpy.
  EXPECT_EQ(forward->units[0].edge.size(), 3u);
  EXPECT_EQ(forward->units[0].aggs.at(0).reduce, Reduce::kAdd);
  EXPECT_EQ(forward->units[1].edge.size(), 1u);
  EXPECT_EQ(forward->units[1].aggs.at(0).reduce, Reduce::kAxpy);
}

TEST(FastPathTest, AMulSummedInBothOrientationsStaysMaterialized) {
  // m = u.h * v.s is summed into both endpoints: two units, the second
  // reading m from the first. The recompute post-pass leaves m materialized,
  // so both units sum the stored products (kAdd), as one op per unit does;
  // recomputed, m would fold into an axpy reducer, which rounds differently.
  GirBuilder b;
  Value m = b.Src("h", 8) * b.Dst("s", 1);
  b.MarkOutput(AggSum(m, AggTo::kDst), "to_dst");
  b.MarkOutput(AggSum(m, AggTo::kSrc), "to_src");
  const auto program = Compiled(b.graph());
  ASSERT_EQ(program->units.size(), 2u);
  EXPECT_TRUE(program->plan.materialized.at(static_cast<size_t>(m.id())));
  for (const CompiledUnit& unit : program->units) {
    ASSERT_EQ(unit.aggs.size(), 1u);
    EXPECT_EQ(unit.aggs[0].reduce, Reduce::kAdd);
  }

  const Graph g = RandomGraph(300, 2400, 83, /*skewed=*/true);
  const FeatureMap features = RandomVertexFeatures(g, {{"h", 8}, {"s", 1}}, 89);
  SeastarExecutor fused;
  SeastarExecutor nofuse{[] {
    SeastarExecutorOptions o;
    o.enable_fusion = false;
    return o;
  }()};
  const RunResult a = fused.Run(b.graph(), g, features);
  const RunResult c = nofuse.Run(b.graph(), g, features);
  for (const char* name : {"to_dst", "to_src"}) {
    SCOPED_TRACE(name);
    const Tensor& x = a.outputs.at(name);
    const Tensor& y = c.outputs.at(name);
    ASSERT_EQ(x.numel(), y.numel());
    EXPECT_EQ(std::memcmp(x.data(), y.data(), static_cast<size_t>(x.numel()) * sizeof(float)), 0);
  }
  ExpectMatchesBaselines(b.graph(), g, features);
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
    ExpectMatchesBaselines(b.graph(), g, features);
  }
}

TEST(FastPathTest, MaxMultiAggAndNbrStoreUnitsMatchBaselines) {
  // Max (SAGE's pool), two aggregations in one unit and a neighbour-row
  // store, on a skewed graph whose hubs span several chunks.
  Rng rng(107);
  CooEdges edges = Rmat(400, 5000, rng);
  const CooEdges star = Star(400);
  edges.src.insert(edges.src.end(), star.src.begin(), star.src.end());
  edges.dst.insert(edges.dst.end(), star.dst.begin(), star.dst.end());
  Graph g = ToGraph(std::move(edges));
  FeatureMap features = RandomVertexFeatures(g, {{"h", 8}, {"s", 1}, {"c", 8}}, 109);
  std::vector<std::function<void(GirBuilder&)>> programs = {
      [](GirBuilder& b) { b.MarkOutput(AggMax(Relu(b.Src("h", 8))), "out"); },
      [](GirBuilder& b) { b.MarkOutput(AggMax(b.Src("s", 1) - b.Dst("s", 1)), "out"); },
      [](GirBuilder& b) {
        Value scaled = b.Src("h", 8) * b.Src("s", 1);
        b.MarkOutput(AggMean(scaled) - AggMax(scaled), "out");
      },
      [](GirBuilder& b) {
        Value scaled = b.Src("h", 8) * 2.0f;
        b.MarkOutput(AggSum(scaled + b.Dst("c", 8)), "out");
        b.MarkOutput(scaled, "scaled");
      },
  };
  for (size_t i = 0; i < programs.size(); ++i) {
    SCOPED_TRACE(i);
    GirBuilder b;
    programs[i](b);
    ExpectMatchesBaselines(b.graph(), g, features);
  }
}

TEST(FastPathTest, LoweredDotProductAndEdgeOnlyUnitsMatchBaselines) {
  // GAT's backward holds both: the attention-gradient unit computes
  // DotProduct(grad_out, h) per edge (and, fused, recomputes Div(Exp,
  // AggSum) in its prologue), and without fusion the Div is a unit that
  // aggregates nothing.
  const VertexProgram gat = GatProgram(8);
  const GirGraph& backward = gat.backward().graph;
  FusionOptions nofuse;
  nofuse.enable_fusion = false;
  const auto fused = Compiled(backward);
  const auto unfused = CompileProgram(backward, nofuse);
  bool has_dot_and_div = false;
  bool has_edge_only = false;
  for (const CompiledUnit& unit : fused->units) {
    const auto has = [&unit](OpKind kind) {
      return std::any_of(unit.edge.begin(), unit.edge.end(),
                         [kind](const Instr& instr) { return instr.kind == kind; });
    };
    has_dot_and_div = has_dot_and_div || (has(OpKind::kDotProduct) && has(OpKind::kDiv));
  }
  for (const CompiledUnit& unit : unfused->units) {
    has_edge_only = has_edge_only || (unit.aggs.empty() && unit.needs_edge_loop);
  }
  EXPECT_TRUE(has_dot_and_div);
  EXPECT_TRUE(has_edge_only);
  SeastarExecutorOptions nofuse_executor;
  nofuse_executor.enable_fusion = false;
  for (bool skewed : {false, true}) {
    Graph g = RandomGraph(250, 2000, skewed ? 111 : 113, skewed);
    FeatureMap features = WithOutputGrad(GatFeatures(g, 8, 115), g.num_vertices(), 8, 117);
    ExpectMatchesBaselines(backward, g, features);
    ExpectMatchesBaselines(backward, g, features, 1e-4f, nofuse_executor);
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

// ---- Dropout -----------------------------------------------------------------------------------
// ops::Dropout draws on 8 jumped xoshiro lanes plus a serial tail; every
// case is checked bit for bit against the per-element path it replaces:
// mask_i = NextBernoulli(p) ? 0 : 1/(1-p), out_i = x_i * mask_i, and the
// Rng left where those draws leave it.

// Normal values with every 61st element one of ±0, NaN and ±Inf.
Tensor DropoutInput(int64_t n, uint64_t seed) {
  Rng rng(seed);
  Tensor x = ops::RandomNormal({n}, 0, 1, rng);
  const float specials[] = {0.0f, -0.0f, std::nanf(""), INFINITY, -INFINITY};
  for (int64_t i = 0; i < n; i += 61) {
    x.data()[i] = specials[(i / 61) % 5];
  }
  return x;
}

struct DropoutReference {
  std::vector<float> out;
  std::vector<float> keep;  // 0 or 1/(1-p) per element.
  RngState state;
};

// The per-element path, for a double p (the kernel's threshold is exact for
// any double, the op's p is a float).
DropoutReference PerElementDropout(const float* x, int64_t n, double p, float keep, Rng rng) {
  DropoutReference ref;
  for (int64_t i = 0; i < n; ++i) {
    const float k = rng.NextBernoulli(p) ? 0.0f : keep;
    ref.keep.push_back(k);
    ref.out.push_back(x[i] * k);
  }
  ref.state = rng.SaveState();
  return ref;
}

bool SameBits(const float* a, const std::vector<float>& b) {
  return std::memcmp(a, b.data(), b.size() * sizeof(float)) == 0;
}

bool SameWords(const RngState& a, const RngState& b) {
  return std::memcmp(a.words, b.words, sizeof(a.words)) == 0;
}

// Products p * 2^53 that are integers (0.5, any float p, 0.5 + 2^-53) and
// that are not (0.37, 0.6, 1/3, 0.1 as doubles).
const double kDropoutProbabilities[] = {
    0.37, 0.5, 0.6, 1.0 / 3.0, 0.1, static_cast<double>(0.6f), 0.5 + 0x1.0p-53};

TEST(DropoutMaskTest, BatchedFillMatchesPerElementBernoulliDrawForDraw) {
  constexpr int64_t kMin = ops::kDropoutMinLaneBlock;
  for (const int64_t n : {int64_t{0}, int64_t{1}, int64_t{7}, int64_t{8}, int64_t{9}, kMin - 1,
                          kMin + 1, 8 * kMin - 1, 8 * kMin, 8 * kMin + 1, 8 * kMin + 13,
                          int64_t{1760384}}) {
    const Tensor x = DropoutInput(n, static_cast<uint64_t>(n) + 3);
    for (const double p_double : kDropoutProbabilities) {
      const float p = static_cast<float>(p_double);
      const float keep = 1.0f / (1.0f - p);
      const DropoutReference ref = PerElementDropout(x.data(), n, p, keep, Rng(12345));
      SCOPED_TRACE(testing::Message() << "n=" << n << " p=" << p);
      Rng rng(12345);
      const Tensor got = ops::Dropout(x, p, rng);
      ASSERT_TRUE(SameBits(got.data(), ref.out));
      // Streams must be in sync afterwards, or a resumed run would diverge.
      EXPECT_TRUE(SameWords(rng.SaveState(), ref.state));
      // Replayed from the same start state over another tensor, the call
      // multiplies by the same keep values: ag::Dropout's backward.
      const Tensor g = DropoutInput(n, static_cast<uint64_t>(n) + 5);
      std::vector<float> g_keep(static_cast<size_t>(n));
      for (int64_t i = 0; i < n; ++i) {
        g_keep[static_cast<size_t>(i)] = g.data()[i] * ref.keep[static_cast<size_t>(i)];
      }
      Rng replay(12345);
      ASSERT_TRUE(SameBits(ops::Dropout(g, p, replay).data(), g_keep));
      if (n >= 1000) {  // Sanity: the drop rate is in the right ballpark.
        int64_t dropped = 0;
        for (const float k : ref.keep) {
          dropped += k == 0.0f;
        }
        EXPECT_NEAR(static_cast<double>(dropped) / static_cast<double>(n), p, 0.08);
      }
    }
  }
}

struct DropoutVariant {
  const char* isa;
  const simd::DropoutKernels* kernels;
};

std::vector<DropoutVariant> DropoutVariants() {
  std::vector<DropoutVariant> variants = {{"scalar", &simd::ScalarDropoutKernels()}};
  if (const simd::DropoutKernels* avx2 = simd::Avx2DropoutKernels()) {
    variants.push_back({"avx2", avx2});
  }
  return variants;
}

// Lane j started j * block draws into `rng`'s stream.
simd::XoshiroLanes JumpedLanes(const Rng& rng, int64_t block) {
  uint64_t words[4];
  std::memcpy(words, rng.SaveState().words, sizeof(words));
  const RngJump jump(static_cast<uint64_t>(block));
  simd::XoshiroLanes lanes;
  for (int j = 0; j < simd::kDropoutLanes; ++j) {
    if (j > 0) {
      jump.Apply(words);
    }
    for (int w = 0; w < 4; ++w) {
      lanes.words[w][j] = words[w];
    }
  }
  return lanes;
}

TEST(DropoutMaskTest, EachKernelVariantMatchesPerElementDraws) {
  // Every block length through two full 8-step tiles, with ragged tiles and
  // tails of every length, and a long block; double p (non-integer
  // p * 2^53 included). Guard elements past the end must stay untouched.
  constexpr int64_t kGuard = 8;
  constexpr float kSentinel = -7.0f;
  std::vector<std::pair<int64_t, int64_t>> shapes;  // (block, tail)
  for (int64_t block = 0; block <= 17; ++block) {
    for (int64_t tail = 0; tail <= 9; ++tail) {
      shapes.emplace_back(block, tail);
    }
  }
  shapes.emplace_back(1029, 5);
  for (const DropoutVariant& variant : DropoutVariants()) {
    for (const auto& [block, tail] : shapes) {
      const int64_t n = simd::kDropoutLanes * block + tail;
      const Tensor x = DropoutInput(n, static_cast<uint64_t>(block * 31 + tail));
      for (const double p : kDropoutProbabilities) {
        const float keep = 1.0f / (1.0f - static_cast<float>(p));
        const uint64_t threshold = static_cast<uint64_t>(std::ceil(p * 0x1.0p53));
        const Rng start(static_cast<uint64_t>(n) * 7 + 1);
        const DropoutReference ref = PerElementDropout(x.data(), n, p, keep, start);
        SCOPED_TRACE(testing::Message() << variant.isa << " block=" << block << " tail=" << tail
                                        << " p=" << p);
        std::vector<float> out(static_cast<size_t>(n + kGuard), kSentinel);
        simd::XoshiroLanes lanes = JumpedLanes(start, block);
        variant.kernels->lanes(x.data(), out.data(), block, tail, threshold, keep, lanes);
        ASSERT_TRUE(SameBits(out.data(), ref.out));
        for (int64_t i = n; i < n + kGuard; ++i) {
          ASSERT_EQ(out[static_cast<size_t>(i)], kSentinel) << "guard " << i - n;
        }
        for (int w = 0; w < 4; ++w) {
          EXPECT_EQ(lanes.words[w][simd::kDropoutLanes - 1], ref.state.words[w]);
        }
      }
    }
  }
}

TEST(DropoutMaskTest, DispatchedKernelIsTheWidestVariant) {
  const simd::DropoutKernels* avx2 = simd::Avx2DropoutKernels();
  EXPECT_EQ(simd::DropoutLanes,
            avx2 != nullptr ? avx2->lanes : simd::ScalarDropoutKernels().lanes);
}

TEST(DropoutMaskTest, ThresholdIsExactAtTheDrawnValue) {
  // For a draw u = x * 2^-53: p = u keeps (u < p is false), the next double
  // above u drops, the one below keeps — in every lane and on the tail. All
  // lanes start from one state here, so each lane's first draw is u.
  for (const uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Rng peek(seed);
    const double u = peek.NextDouble();
    for (const auto& [p, dropped] : {std::pair{u, false},
                                     std::pair{std::nextafter(u, 1.0), true},
                                     std::pair{std::nextafter(u, 0.0), false}}) {
      const float want = dropped ? 0.0f : 2.0f;
      const uint64_t threshold = static_cast<uint64_t>(std::ceil(p * 0x1.0p53));
      for (const DropoutVariant& variant : DropoutVariants()) {
        for (const int64_t block : {int64_t{0}, int64_t{1}, int64_t{9}}) {
          simd::XoshiroLanes lanes = JumpedLanes(Rng(seed), 0);
          const int64_t n = simd::kDropoutLanes * block + 1;
          std::vector<float> ones(static_cast<size_t>(n), 1.0f);
          std::vector<float> out(ones.size(), -1.0f);
          variant.kernels->lanes(ones.data(), out.data(), block, 1, threshold, 2.0f, lanes);
          for (int64_t j = 0; j < simd::kDropoutLanes && block > 0; ++j) {
            EXPECT_EQ(out[static_cast<size_t>(j * block)], want)
                << variant.isa << " seed " << seed << " p " << p << " lane " << j;
          }
          if (block == 0) {
            EXPECT_EQ(out[0], want) << variant.isa << " seed " << seed << " p " << p;
          }
        }
      }
    }
    // Through the op, p is a float: the floats on either side of u.
    const float below = static_cast<float>(u) <= u ? static_cast<float>(u)
                                                    : std::nextafter(static_cast<float>(u), 0.0f);
    const float above = std::nextafter(below, 1.0f);
    for (const auto& [p, dropped] : {std::pair{below, false}, std::pair{above, true}}) {
      if (p <= 0.0f || p >= 1.0f) {
        continue;  // The op takes p in [0, 1); 0 draws nothing.
      }
      Rng rng(seed);
      // On ones the output is the keep value itself.
      EXPECT_EQ(ops::Dropout(Tensor::Ones({1}), p, rng).at(0), dropped ? 0.0f : 1.0f / (1.0f - p))
          << "seed " << seed << " p " << p;
    }
  }
}

TEST(DropoutMaskTest, DegenerateProbabilitiesConsumeNoDraws) {
  // NextBernoulli(0) draws nothing: p = 0 keeps everything (x * 1, NaN and
  // ±0 included), leaves every xoshiro word as it was, and on a lane-sized
  // call too. p >= 1 is rejected.
  for (const int64_t n : {int64_t{64}, 8 * ops::kDropoutMinLaneBlock + 5}) {
    const Tensor x = DropoutInput(n, 11);
    std::vector<float> want(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      want[static_cast<size_t>(i)] = x.data()[i] * 1.0f;
    }
    Rng a(7);
    const Rng b(7);
    EXPECT_TRUE(SameBits(ops::Dropout(x, 0.0f, a).data(), want)) << "n=" << n;
    EXPECT_TRUE(SameWords(a.SaveState(), b.SaveState())) << "n=" << n;
  }
  Rng rng(7);
  EXPECT_DEATH(ops::Dropout(Tensor::Ones({4}), 1.0f, rng), "");
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

// ---- Dense ops and the GIR pointwise table agree bit for bit ---------------

// `n` values: normal draws interleaved (every `stride`-th slot, starting at
// `phase`) with signed zeros, NaNs, infinities, denormals and values near
// FLT_MAX, so two such arrays pair special values with each other too.
std::vector<float> EdgeMixedValues(int64_t n, int64_t stride, int64_t phase, uint64_t seed) {
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float specials[] = {0.0f, -0.0f, kNaN, -kNaN, kInf, -kInf, 1e-40f, -1e-40f, 3.4e38f,
                            -3.4e38f};
  constexpr int64_t kSpecials = sizeof(specials) / sizeof(specials[0]);
  Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    v[i] = i % stride == 0 ? specials[(i / stride + phase) % kSpecials]
                           : 4.0f * static_cast<float>(rng.NextGaussian());
  }
  return v;
}

TEST(PointwiseAgreementTest, DenseOpsMatchTheGirTableBitForBit) {
  const int64_t n = 40000;
  const Tensor a({n}, EdgeMixedValues(n, 3, 0, 41));
  const Tensor b({n}, EdgeMixedValues(n, 2, 7, 43));
  struct Case {
    const char* name;
    OpKind kind;
    float attr;
    std::function<Tensor(const Tensor&, const Tensor&)> dense;
  };
  const Case cases[] = {
      {"add", OpKind::kAdd, 0.0f, [](const Tensor& x, const Tensor& y) { return ops::Add(x, y); }},
      {"sub", OpKind::kSub, 0.0f, [](const Tensor& x, const Tensor& y) { return ops::Sub(x, y); }},
      {"mul", OpKind::kMul, 0.0f, [](const Tensor& x, const Tensor& y) { return ops::Mul(x, y); }},
      {"div", OpKind::kDiv, 0.0f, [](const Tensor& x, const Tensor& y) { return ops::Div(x, y); }},
      {"neg", OpKind::kNeg, 0.0f, [](const Tensor& x, const Tensor&) { return ops::Neg(x); }},
      {"exp", OpKind::kExp, 0.0f, [](const Tensor& x, const Tensor&) { return ops::Exp(x); }},
      {"log", OpKind::kLog, 0.0f, [](const Tensor& x, const Tensor&) { return ops::Log(x); }},
      {"relu", OpKind::kRelu, 0.0f, [](const Tensor& x, const Tensor&) { return ops::Relu(x); }},
      {"leaky_relu", OpKind::kLeakyRelu, 0.2f,
       [](const Tensor& x, const Tensor&) { return ops::LeakyRelu(x, 0.2f); }},
      {"sigmoid", OpKind::kSigmoid, 0.0f,
       [](const Tensor& x, const Tensor&) { return ops::Sigmoid(x); }},
      {"tanh", OpKind::kTanh, 0.0f, [](const Tensor& x, const Tensor&) { return ops::Tanh(x); }},
      {"relu_grad", OpKind::kReluGrad, 0.0f,
       [](const Tensor& g, const Tensor& x) { return ops::ReluGrad(g, x); }},
  };
  const auto count_mismatches = [n](const float* expected, const float* actual) {
    int64_t mismatches = 0;
    for (int64_t i = 0; i < n; ++i) {
      mismatches += std::bit_cast<uint32_t>(expected[i]) != std::bit_cast<uint32_t>(actual[i]);
    }
    return mismatches;
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const Tensor dense = c.dense(a, b);
    ASSERT_EQ(dense.numel(), n);
    // Width 1: one application per element (GAT's attention scalars).
    std::vector<float> narrow(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      PointwiseApply(c.kind, c.attr, &narrow[i], 1, a.data() + i, 1, b.data() + i, 1);
    }
    EXPECT_EQ(count_mismatches(dense.data(), narrow.data()), 0) << "width 1";
    // Full width: one application over the whole row.
    std::vector<float> wide(static_cast<size_t>(n));
    const int32_t w = static_cast<int32_t>(n);
    PointwiseApply(c.kind, c.attr, wide.data(), w, a.data(), w, b.data(), w);
    EXPECT_EQ(count_mismatches(dense.data(), wide.data()), 0) << "full width";
  }
}

// One output element of an elementwise op, from the pointwise:: functors on
// floats: the per-element definition the row kernels must reproduce.
float ElementwiseReference(OpKind kind, float attr, float x, float y) {
  switch (kind) {
    case OpKind::kAdd:
      return pointwise::Add{}(x, y);
    case OpKind::kSub:
      return pointwise::Sub{}(x, y);
    case OpKind::kMul:
      return pointwise::Mul{}(x, y);
    case OpKind::kDiv:
      return pointwise::Div{}(x, y);
    case OpKind::kEqualMask:
      return pointwise::EqualMask{}(x, y);
    case OpKind::kReluGrad:
      return pointwise::ReluGrad{}(x, y);
    case OpKind::kLeakyReluGrad:
      return pointwise::LeakyReluGrad{attr}(x, y);
    case OpKind::kSigmoidGrad:
      return pointwise::SigmoidGrad{}(x, y);
    case OpKind::kTanhGrad:
      return pointwise::TanhGrad{}(x, y);
    case OpKind::kNeg:
      return pointwise::Neg{}(x);
    case OpKind::kExp:
      return pointwise::Exp{}(x);
    case OpKind::kLog:
      return pointwise::Log{}(x);
    case OpKind::kRelu:
      return pointwise::Relu{}(x);
    case OpKind::kLeakyRelu:
      return pointwise::LeakyRelu{attr}(x);
    case OpKind::kSigmoid:
      return pointwise::Sigmoid{}(x);
    case OpKind::kTanh:
      return pointwise::Tanh{}(x);
    case OpKind::kIdentity:
      return x;
    default:
      ADD_FAILURE() << "not elementwise: " << OpKindName(kind);
      return 0.0f;
  }
}

// An expected output element, and whether two NaNs meet in computing it.
struct Expected {
  float value;
  bool nans_meet;
};

// Runs PointwiseApplyRows the way a unit's edge prologue binds it (each
// operand's rows gathered through its own index array, the output rows
// dense) over rows holding EdgeMixedValues, and counts the output elements
// whose bits differ from `reference(j, a_row, b_row)`. Where two NaNs meet
// (inputs, or one made on the way by 0 * inf or inf - inf), IEEE 754 leaves
// open which one propagates, and the compiler may swap the operands of +
// and * (x86 keeps the first): where the expected element is then a NaN,
// any NaN matches. Every other element must match bit for bit.
int64_t RowKernelMismatches(
    OpKind kind, float attr, int32_t w, int32_t wa, int32_t wb,
    const std::function<Expected(int32_t, const float*, const float*)>& reference) {
  constexpr int64_t kRows = 97;   // Table rows per operand.
  constexpr int64_t kApps = 300;  // Applications (prologue rows).
  const std::vector<float> a = EdgeMixedValues(kRows * wa, 3, 0, 51 + wa);
  const std::vector<float> b = EdgeMixedValues(kRows * wb, 2, 5, 53 + wb);
  Rng rng(55 + w);
  std::vector<int32_t> a_idx(kApps);
  std::vector<int32_t> b_idx(kApps);
  for (int64_t i = 0; i < kApps; ++i) {
    a_idx[i] = static_cast<int32_t>(rng.NextBounded(kRows));
    b_idx[i] = static_cast<int32_t>(rng.NextBounded(kRows));
  }
  const simd::Rows a_rows{a.data(), a_idx.data(), wa};
  const simd::Rows b_rows{b.data(), b_idx.data(), wb};
  std::vector<float> out(static_cast<size_t>(kApps * w));
  PointwiseApplyRows(kind, attr, kApps, w, wa, wb, [&](int64_t i) {
    return PointwiseRows{out.data() + i * w, a_rows(i), b_rows(i)};
  });
  int64_t mismatches = 0;
  for (int64_t i = 0; i < kApps; ++i) {
    for (int32_t j = 0; j < w; ++j) {
      const Expected want = reference(j, a_rows(i), b_rows(i));
      const float got = out[static_cast<size_t>(i * w + j)];
      const bool any_nan = want.nans_meet && std::isnan(want.value) && std::isnan(got);
      mismatches += std::bit_cast<uint32_t>(want.value) != std::bit_cast<uint32_t>(got) &&
                    !any_nan;
    }
  }
  return mismatches;
}

TEST(PointwiseAgreementTest, RowKernelsMatchThePerElementFunctorsOnGatheredRows) {
  // Every elementwise op at the widths with a compile-time row kernel (1, 8)
  // and at widths without (2, 16, 64, 100), in each broadcast shape: full
  // against full, full against one column, one column against full, and
  // grouped (8 of 64, 2 of 16, on either side). A narrow operand's element
  // j / (w / width) meets output element j.
  const OpKind binary[] = {OpKind::kAdd,          OpKind::kSub,       OpKind::kMul,
                           OpKind::kDiv,          OpKind::kEqualMask, OpKind::kReluGrad,
                           OpKind::kLeakyReluGrad, OpKind::kSigmoidGrad, OpKind::kTanhGrad};
  const OpKind unary[] = {OpKind::kNeg,       OpKind::kExp,     OpKind::kLog,
                          OpKind::kRelu,      OpKind::kLeakyRelu, OpKind::kSigmoid,
                          OpKind::kTanh,      OpKind::kIdentity};
  struct Widths {
    int32_t w, wa, wb;
  };
  std::vector<Widths> binary_shapes;
  for (int32_t w : {1, 2, 8, 16, 64, 100}) {
    binary_shapes.push_back({w, w, w});
    if (w > 1) {
      binary_shapes.push_back({w, w, 1});
      binary_shapes.push_back({w, 1, w});
    }
  }
  for (const Widths grouped : {Widths{64, 64, 8}, Widths{64, 8, 64}, Widths{16, 16, 2},
                               Widths{16, 2, 16}}) {
    binary_shapes.push_back(grouped);
  }
  constexpr float kSlope = 0.2f;
  for (OpKind kind : binary) {
    for (const Widths& s : binary_shapes) {
      SCOPED_TRACE(std::string(OpKindName(kind)) + " " + std::to_string(s.w) + " = " +
                   std::to_string(s.wa) + " op " + std::to_string(s.wb));
      EXPECT_EQ(RowKernelMismatches(kind, kSlope, s.w, s.wa, s.wb,
                                    [&](int32_t j, const float* a, const float* b) {
                                      const float x = a[j / (s.w / s.wa)];
                                      const float y = b[j / (s.w / s.wb)];
                                      return Expected{ElementwiseReference(kind, kSlope, x, y),
                                                      std::isnan(x) && std::isnan(y)};
                                    }),
                0);
    }
  }
  for (OpKind kind : unary) {
    for (int32_t w : {1, 2, 8, 16, 64, 100}) {
      for (int32_t wa : {w, 1}) {  // Identity also broadcasts one column.
        if (wa != w && kind != OpKind::kIdentity) {
          continue;
        }
        SCOPED_TRACE(std::string(OpKindName(kind)) + " " + std::to_string(w) + " of " +
                     std::to_string(wa));
        EXPECT_EQ(RowKernelMismatches(kind, kSlope, w, wa, wa,
                                      [&](int32_t j, const float* a, const float*) {
                                        return Expected{ElementwiseReference(
                                                            kind, kSlope, a[j / (w / wa)], 0.0f),
                                                        false};
                                      }),
                  0);
      }
    }
  }
}

TEST(PointwiseAgreementTest, RowReductionsMatchAscendingPerGroupSums) {
  // The grouped width reductions at 64 -> 8 (GAT's hidden layers, a
  // compile-time kernel), 16 -> 8 and 6 -> 2: out[c] sums group c's
  // products (DotProduct against a full b, one b value per group or one b
  // value) or values (ReduceWidthSum) in ascending order from 0, each
  // product folded with the build's multiply-add (pointwise::MulAdd: fused
  // where the build targets FMA, rounded first elsewhere).
  for (const auto& [w, wa] : {std::pair{8, 64}, std::pair{8, 16}, std::pair{2, 6}}) {
    const int32_t k = wa / w;
    for (int32_t wb : {wa, w, 1}) {
      SCOPED_TRACE("DotProduct " + std::to_string(wa) + " -> " + std::to_string(w) + ", b " +
                   std::to_string(wb));
      EXPECT_EQ(RowKernelMismatches(OpKind::kDotProduct, 0.0f, w, wa, wb,
                                    [&](int32_t c, const float* a, const float* b) {
                                      Expected want{0.0f, false};
                                      for (int32_t j = c * k; j < (c + 1) * k; ++j) {
                                        const float y = b[wb == wa ? j : (wb == 1 ? 0 : c)];
                                        want.nans_meet =
                                            want.nans_meet || (std::isnan(a[j]) && std::isnan(y)) ||
                                            (std::isnan(want.value) && std::isnan(a[j] * y));
                                        want.value = pointwise::MulAdd(a[j], y, want.value);
                                      }
                                      return want;
                                    }),
                0);
    }
    SCOPED_TRACE("ReduceWidthSum " + std::to_string(wa) + " -> " + std::to_string(w));
    EXPECT_EQ(RowKernelMismatches(OpKind::kReduceWidthSum, 0.0f, w, wa, 1,
                                  [&](int32_t c, const float* a, const float*) {
                                    Expected want{0.0f, false};
                                    for (int32_t j = c * k; j < (c + 1) * k; ++j) {
                                      want.nans_meet = want.nans_meet ||
                                                       (std::isnan(want.value) && std::isnan(a[j]));
                                      want.value += a[j];
                                    }
                                    return want;
                                  }),
              0);
  }
}

TEST(PointwiseAgreementTest, EluMatchesItsFunctorOnEdgeValues) {
  // ops::Elu calls exp only where x is not > 0; every element keeps the
  // functor's bits, the edge values included: NaN stays NaN, +0 and -0
  // give +0, -inf gives -alpha and +inf stays +inf.
  constexpr float kAlpha = 0.7f;
  const int64_t n = 40000;  // Several parallel chunks and blocks.
  const Tensor x({n}, EdgeMixedValues(n, 3, 0, 47));
  const Tensor y = ops::Elu(x, kAlpha);
  const pointwise::Elu elu{kAlpha};
  int64_t mismatches = 0;
  for (int64_t i = 0; i < n; ++i) {
    mismatches +=
        std::bit_cast<uint32_t>(elu(x.data()[i])) != std::bit_cast<uint32_t>(y.data()[i]);
  }
  EXPECT_EQ(mismatches, 0);
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const Tensor edges({5}, {std::numeric_limits<float>::quiet_NaN(), 0.0f, -0.0f, -kInf, kInf});
  const Tensor out = ops::Elu(edges, kAlpha);
  EXPECT_TRUE(std::isnan(out.data()[0]));
  EXPECT_EQ(std::bit_cast<uint32_t>(out.data()[1]), std::bit_cast<uint32_t>(0.0f));
  EXPECT_EQ(std::bit_cast<uint32_t>(out.data()[2]), std::bit_cast<uint32_t>(0.0f));
  EXPECT_EQ(out.data()[3], -kAlpha);
  EXPECT_EQ(out.data()[4], kInf);
}

}  // namespace
}  // namespace seastar
