// Run-scoped profiling through the one span recorder (src/common/tracing.h):
// a Retention::kRun tracer installed with trace::ScopedRun records the
// executors' per-unit / per-op spans with their kernel counters, exports
// them as Chrome-trace JSON, and aggregates them in the summary table.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/common/tracing.h"
#include "src/core/executor_factory.h"
#include "src/core/models/gat.h"
#include "src/core/models/gcn.h"
#include "src/core/models/rgcn.h"
#include "src/core/models/sage.h"
#include "src/core/train.h"
#include "src/exec/baseline_executor.h"
#include "src/exec/plan_cache.h"
#include "src/exec/seastar_executor.h"
#include "src/gir/builder.h"
#include "src/gir/passes.h"
#include "src/graph/datasets.h"
#include "src/graph/generators.h"
#include "src/tensor/ops.h"
#include "src/tensor/simd.h"

namespace seastar {
namespace {

using trace::AmbientSpan;
using trace::Arg;
using trace::Retention;
using trace::ScopedRun;
using trace::Span;
using trace::Tracer;
using trace::TracerConfig;

Graph RandomGraph(int64_t n, int64_t m, uint64_t seed) {
  Rng rng(seed);
  CooEdges edges = ErdosRenyi(n, m, rng);
  AddSelfLoops(edges);
  return ToGraph(std::move(edges));
}

FeatureMap VertexFeature(const Graph& g, const std::string& key, int64_t width, uint64_t seed) {
  Rng rng(seed);
  FeatureMap features;
  features.vertex[key] = ops::RandomNormal({g.num_vertices(), width}, 0.0f, 1.0f, rng);
  return features;
}

GirGraph AggSumProgram(int32_t width) {
  GirBuilder b;
  b.MarkOutput(AggSum(b.Src("h", width)), "out");
  return RunStandardPasses(b.graph()).graph;
}

// Every span the tracer retained, in recording order.
std::vector<Span> RetainedSpans(const Tracer& tracer) {
  std::vector<Span> spans;
  tracer.ForEachRetained([&spans](const trace::RequestTrace& run) {
    for (int i = 0; i < run.num_spans(); ++i) {
      spans.push_back(run.span(i));
    }
  });
  return spans;
}

std::vector<Span> SpansInCategory(const Tracer& tracer, const std::string& category) {
  std::vector<Span> spans;
  for (const Span& span : RetainedSpans(tracer)) {
    if (category == span.category) {
      spans.push_back(span);
    }
  }
  return spans;
}

// ---- Run-scoped recorder -------------------------------------------------

TEST(ProfilerTest, RecordsNestedSpansWithCounters) {
  Tracer tracer(TracerConfig{}, Retention::kRun);
  {
    ScopedRun run(&tracer, "run", "test");
    AmbientSpan outer("outer", "test");
    AmbientSpan inner("inner", "test");
    inner.Set(Arg::kEdges, 42);
  }

  const std::vector<Span> spans = RetainedSpans(tracer);
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_STREQ(spans[0].name, "run");
  EXPECT_STREQ(spans[1].name, "outer");
  EXPECT_STREQ(spans[2].name, "inner");
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 1);
  EXPECT_EQ(spans[2].arg(Arg::kEdges), 42);
  EXPECT_FALSE(spans[1].has(Arg::kEdges));
  for (const Span& span : spans) {
    EXPECT_GE(span.dur_us, 0);
  }
  // The inner span is contained in the outer one.
  EXPECT_GE(spans[2].start_us, spans[1].start_us);
  EXPECT_LE(spans[2].start_us + spans[2].dur_us, spans[1].start_us + spans[1].dur_us + 1);
  EXPECT_EQ(tracer.stats().retained_run, 1);
}

TEST(ProfilerTest, DisabledProfilerRecordsNothing) {
  // A run-scoped tracer nobody installed, a null ScopedRun, and a span with
  // no ambient trace: nothing is recorded anywhere.
  Tracer tracer(TracerConfig{}, Retention::kRun);
  {
    ScopedRun run(nullptr, "run", "test");
    EXPECT_EQ(trace::CurrentTrace(), nullptr);
    AmbientSpan span("scoped", "test");
    EXPECT_FALSE(span.active());
    EXPECT_EQ(span.span(), nullptr);
    span.Set(Arg::kEdges, 1);
  }
  EXPECT_TRUE(RetainedSpans(tracer).empty());
  EXPECT_EQ(tracer.ChromeTraceJson().find("\"ph\""), std::string::npos);
}

TEST(ProfilerTest, ChromeTraceJsonIsWellFormed) {
  Tracer tracer(TracerConfig{}, Retention::kRun);
  {
    ScopedRun run(&tracer, "run", "test");
    AmbientSpan span(trace::Intern("unit0:Mul+AggSum"), "unit");
    span.Set(Arg::kEdges, 100);
    span.span()->simd_isa = "avx2";
  }
  const std::string json = tracer.ChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"unit0:Mul+AggSum\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"edges\": 100"), std::string::npos);
  EXPECT_NE(json.find("\"simd_isa\": \"avx2\""), std::string::npos);
  EXPECT_NE(json.find("\"retained_by\": \"run\""), std::string::npos);
  EXPECT_NE(json.find("\"retention\": \"run\""), std::string::npos);
  // Balanced braces (crude structural check without a JSON parser).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));

  const std::string path = ::testing::TempDir() + "/profiler_test_trace.json";
  ASSERT_TRUE(tracer.WriteChromeTraceFile(path));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), json + "\n");
  std::remove(path.c_str());
}

TEST(ProfilerTest, SummaryTableAggregatesByName) {
  const std::string long_label = "unit3:Identity+DotProduct+Mul+AggSum+LeakyRelu+Exp";
  Tracer tracer(TracerConfig{}, Retention::kRun);
  {
    ScopedRun run(&tracer, "run", "test");
    for (int i = 0; i < 3; ++i) {
      AmbientSpan span("AggSum", "op");
      span.Set(Arg::kEdges, 10);
    }
    AmbientSpan unit(trace::Intern(long_label), "unit");
  }
  const std::string table = tracer.SummaryTable();
  EXPECT_NE(table.find("AggSum"), std::string::npos);
  EXPECT_NE(table.find(" 30 "), std::string::npos);  // Edges summed over spans.
  EXPECT_NE(table.find(long_label), std::string::npos) << "labels print whole";
  for (const char* column : {"plan h/m", "pool hit%", "segs/tw", "isa", "mat bytes"}) {
    EXPECT_NE(table.find(column), std::string::npos) << column;
  }
}

// ---- Deterministic executor counters -------------------------------------

TEST(ProfilerTest, SeastarUnitSpanCountsEveryEdgeOnce) {
  const Graph g = RandomGraph(60, 300, 0x5e1);
  const FeatureMap features = VertexFeature(g, "h", 4, 0x5e2);
  GirBuilder vertex_only;
  vertex_only.MarkOutput(Relu(vertex_only.Dst("h", 4)), "out");

  // Vertex-parallel edge-sequential: an aggregating unit visits each edge
  // slot exactly once; a vertex-only unit runs no edge loop at all.
  const struct {
    const char* name;
    GirGraph gir;
    int64_t edges;
  } cases[] = {{"agg_sum", AggSumProgram(4), g.num_edges()},
               {"vertex_only", RunStandardPasses(vertex_only.graph()).graph, 0}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    Tracer tracer(TracerConfig{}, Retention::kRun);
    {
      ScopedRun run(&tracer, "run", "test");
      SeastarExecutor().Run(c.gir, g, features);
    }

    const std::vector<Span> units = SpansInCategory(tracer, "unit");
    ASSERT_EQ(units.size(), 1u) << "expected exactly one fused unit";
    const Span& unit = units[0];
    EXPECT_EQ(unit.arg(Arg::kEdges), c.edges);
    EXPECT_GT(unit.arg(Arg::kTileSegments), 0);
    EXPECT_EQ(std::string(unit.name).rfind("unit0:", 0), 0u) << unit.name;

    const std::vector<Span> runs = SpansInCategory(tracer, "exec");
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0].arg(Arg::kKernelLaunches), 1);
    EXPECT_EQ(runs[0].arg(Arg::kPlanCacheHits) + runs[0].arg(Arg::kPlanCacheMisses), 1);
  }
}

TEST(ProfilerTest, BaselineOpSpansCoverTraversalKernels) {
  const Graph g = RandomGraph(50, 240, 0xba5e);
  GirBuilder b;
  b.MarkOutput(AggSum(b.Src("h", 4) * b.Src("norm", 1)), "out");
  const GirGraph gir = RunStandardPasses(b.graph()).graph;
  Rng rng(0xba5f);
  FeatureMap features;
  features.vertex["h"] = ops::RandomNormal({g.num_vertices(), 4}, 0.0f, 1.0f, rng);
  features.vertex["norm"] = ops::RandomNormal({g.num_vertices(), 1}, 0.0f, 1.0f, rng);

  for (BaselineFlavor flavor : {BaselineFlavor::kDglLike, BaselineFlavor::kPygLike}) {
    SCOPED_TRACE(flavor == BaselineFlavor::kDglLike ? "dgl" : "pyg");
    BaselineExecutorOptions options;
    options.flavor = flavor;
    BaselineExecutor executor(options);
    Tracer tracer(TracerConfig{}, Retention::kRun);
    {
      ScopedRun run(&tracer, "run", "test");
      executor.Run(gir, g, features);
    }

    int64_t traversal_spans = 0;
    for (const Span& span : SpansInCategory(tracer, "op")) {
      if (span.arg(Arg::kEdges) > 0) {
        EXPECT_EQ(span.arg(Arg::kEdges), g.num_edges());
        ++traversal_spans;
      }
    }
    EXPECT_GE(traversal_spans, 1);
    const std::vector<Span> runs = SpansInCategory(tracer, "exec");
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_GT(runs[0].arg(Arg::kKernelLaunches), 0);
  }
}

TEST(ProfilerTest, ExecutorsRecordNothingWithoutProfiler) {
  const Graph g = RandomGraph(30, 120, 0x0ff);
  const GirGraph gir = AggSumProgram(4);
  const FeatureMap features = VertexFeature(g, "h", 4, 0x100);

  // No ambient trace: the executors' hooks are inert.
  ASSERT_EQ(trace::CurrentTrace(), nullptr);
  SeastarExecutor().Run(gir, g, features);
  BaselineExecutor().Run(gir, g, features);

  // A null context hides an installed run: only the run's root is recorded.
  Tracer tracer(TracerConfig{}, Retention::kRun);
  {
    ScopedRun run(&tracer, "run", "test");
    trace::ScopedTraceContext hidden(nullptr);
    SeastarExecutor().Run(gir, g, features);
    BaselineExecutor().Run(gir, g, features);
  }
  const std::vector<Span> spans = RetainedSpans(tracer);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "run");
}

TEST(ProfilerTest, UnitLabelsSurvivePlanCacheClear) {
  const Graph g = RandomGraph(40, 160, 0xc1ea);
  const GirGraph gir = AggSumProgram(4);
  const FeatureMap features = VertexFeature(g, "h", 4, 0xc1eb);
  Tracer tracer(TracerConfig{}, Retention::kRun);
  {
    ScopedRun run(&tracer, "run", "test");
    SeastarExecutor().Run(gir, g, features);
  }
  const std::string label = SpansInCategory(tracer, "unit").at(0).name;
  // Evicts (and frees) the compiled program the label was built from.
  PlanCache::Get().Clear();
  EXPECT_EQ(label, SpansInCategory(tracer, "unit").at(0).name);
  EXPECT_NE(tracer.ChromeTraceJson().find("\"name\": \"" + label + "\""), std::string::npos);
  EXPECT_NE(tracer.SummaryTable().find(label), std::string::npos);
}

// ---- RunContext regression (api_redesign) --------------------------------

TEST(ProfilerTest, RetainThroughRunContextMatchesDefaultRun) {
  const Graph g = RandomGraph(40, 160, 0x7e7);
  GirBuilder b;
  b.MarkOutput(AggSum(b.Src("h", 4) * b.Src("norm", 1)), "out");
  const GirGraph gir = RunStandardPasses(b.graph()).graph;
  Rng rng(0x7e8);
  FeatureMap features;
  features.vertex["h"] = ops::RandomNormal({g.num_vertices(), 4}, 0.0f, 1.0f, rng);
  features.vertex["norm"] = ops::RandomNormal({g.num_vertices(), 1}, 0.0f, 1.0f, rng);

  // PyG never fuses, so the [E, 4] Mul intermediate really materializes
  // and the eager-free path has something to release.
  BaselineExecutor executor({BaselineFlavor::kPygLike});
  RunResult keep_all = executor.Run(gir, g, features);
  const std::vector<int32_t> no_retain;
  RunContext ctx;
  ctx.retain = &no_retain;
  RunResult eager = executor.Run(gir, g, features, ctx);
  ASSERT_TRUE(keep_all.outputs.count("out"));
  ASSERT_TRUE(eager.outputs.count("out"));
  EXPECT_TRUE(keep_all.outputs.at("out").AllClose(eager.outputs.at("out"), 1e-6f));
  // Eager-free mode must drop intermediates the keep-everything run saved.
  EXPECT_LT(eager.saved->size(), keep_all.saved->size());
}


TEST(ProfilerTest, GcnEpochRecordsDenseSpansPerLayer) {
  // The dense half of an epoch is visible in the run trace: each forward
  // dense op gets a "dense" span named after the op its backward node
  // records ("matmul", "add_row_broadcast", "relu", "log_softmax",
  // "nll_loss"), every tape-op backward node one named "<op>/backward", and
  // each training-mode dropout one "dropout" span. The vertex
  // program's backward is aggregation: it stays in its own "program" span,
  // outside the dense category.
  DatasetOptions options;
  options.scale = 0.06;
  options.max_feature_dim = 32;
  const Dataset data = MakeDataset(*FindDataset("cora"), options);
  GcnConfig config;
  config.num_layers = 2;
  Gcn model(data, config, std::move(*ExecutorFactory::Create("seastar")));
  TrainConfig train;
  train.epochs = 1;
  train.warmup_epochs = 0;

  Tracer tracer(TracerConfig{}, Retention::kRun);
  {
    ScopedRun run(&tracer, "gcn", "train");
    TrainNodeClassification(model, data, train);
  }
  const std::vector<Span> dense = SpansInCategory(tracer, "dense");
  const auto count = [&dense](const std::string& name) {
    return std::count_if(dense.begin(), dense.end(),
                         [&name](const Span& span) { return name == span.name; });
  };
  // Per layer a projection and a bias add, a relu between layers, and one
  // loss head; each op once forward and once backward.
  const std::pair<const char*, int> per_epoch[] = {{"matmul", config.num_layers},
                                                   {"add_row_broadcast", config.num_layers},
                                                   {"relu", config.num_layers - 1},
                                                   {"log_softmax", 1},
                                                   {"nll_loss", 1}};
  for (const auto& [op, times] : per_epoch) {
    EXPECT_EQ(count(op), times) << op;
    EXPECT_EQ(count(std::string(op) + "/backward"), times) << op;
  }
  EXPECT_EQ(count("dropout"), config.num_layers);
  // Each dropout span counts what it wrote: only its output, since no
  // dropout keeps a mask (the backward replays the draws).
  std::vector<int64_t> dropout_bytes;
  for (const Span& span : dense) {
    if (std::string(span.name) == "dropout") {
      ASSERT_TRUE(span.has(Arg::kBytesMaterialized));
      dropout_bytes.push_back(span.arg(Arg::kBytesMaterialized));
    }
  }
  const int64_t n = data.features.dim(0);
  const int64_t bytes = static_cast<int64_t>(sizeof(float));
  EXPECT_EQ(dropout_bytes,
            (std::vector<int64_t>{n * data.features.dim(1) * bytes,
                                  n * config.hidden_dim * bytes}));
  // One run, so span indices are positions in the retained list.
  const std::vector<Span> all = RetainedSpans(tracer);
  for (const Span& span : dense) {
    const std::string name = span.name;
    if (name.find('/') == std::string::npos) {  // A forward dense op.
      ASSERT_GE(span.parent, 0);
      EXPECT_STREQ(all.at(static_cast<size_t>(span.parent)).name, "forward") << name;
    }
  }
  EXPECT_EQ(count("vertex_program/backward"), 0);
  const std::vector<Span> program = SpansInCategory(tracer, "program");
  EXPECT_GE(std::count_if(program.begin(), program.end(),
                          [](const Span& span) {
                            return std::string(span.name) == "vertex_program/backward";
                          }),
            1);
  for (const Span& span : dense) {
    SCOPED_TRACE(span.name);
    EXPECT_GE(span.parent, 0);
    EXPECT_GE(span.dur_us, 0);
  }
}

// Every unit span of a run carries its tile plan and the dispatched ISA:
// the unit ran on the segment launch.
void ExpectUnitSpansOnSegmentLaunch(const std::vector<Span>& units) {
  for (const Span& span : units) {
    SCOPED_TRACE(span.name);
    EXPECT_TRUE(span.has(Arg::kTileSegments));
    EXPECT_GE(span.arg(Arg::kTileSegments), 1);
    EXPECT_TRUE(span.has(Arg::kTileWidth));
    EXPECT_GE(span.arg(Arg::kTileWidth), 1);
    ASSERT_NE(span.simd_isa, nullptr);
    EXPECT_STREQ(span.simd_isa, simd::SimdIsaName());
  }
}

metrics::Counter* TiledUnits() {
  return metrics::MetricsRegistry::Get().GetCounter("seastar_tiling_units_tiled_total");
}

TEST(ProfilerTest, GatEpochEveryUnitSpanReportsTilePlanAndIsa) {
  // Every GAT unit — forward and backward, all heads — runs on the segment
  // launch: each unit span carries its tile plan and the dispatched ISA,
  // and the launch counter counts each of them.
  DatasetOptions options;
  options.scale = 0.06;
  options.max_feature_dim = 32;
  const Dataset data = MakeDataset(*FindDataset("cora"), options);
  GatConfig config;
  config.num_heads = 2;
  config.hidden_dim = 4;
  Gat model(data, config, std::move(*ExecutorFactory::Create("seastar")));
  TrainConfig train;
  train.epochs = 1;
  train.warmup_epochs = 0;

  const int64_t tiled_before = TiledUnits()->value();
  Tracer tracer(TracerConfig{}, Retention::kRun);
  {
    ScopedRun run(&tracer, "gat", "train");
    TrainNodeClassification(model, data, train);
  }
  // Each layer projects all its heads in one forward matmul and scores them
  // (eu, ev) in two grouped row dots; the hidden layer's output passes an
  // ELU.
  const std::vector<Span> dense = SpansInCategory(tracer, "dense");
  const auto count = [&dense](const std::string& name) {
    return std::count_if(dense.begin(), dense.end(),
                         [&name](const Span& span) { return name == span.name; });
  };
  EXPECT_EQ(count("matmul"), 2);
  EXPECT_EQ(count("grouped_row_dot"), 2 * 2);
  EXPECT_EQ(count("elu"), 1);

  const std::vector<Span> units = SpansInCategory(tracer, "unit");
  // One program per layer (both heads of the hidden one at once), 2 forward
  // + 4 backward units each: the backward reads the forward's Exp and its
  // AggSum as saved leaves instead of recomputing them, and its
  // Div(Exp, AggSum) is recomputed in the unit that reads it, not run as an
  // edge-only unit of its own.
  EXPECT_EQ(units.size(), 2u * 6u);
  EXPECT_EQ(TiledUnits()->value() - tiled_before, static_cast<int64_t>(units.size()));
  ExpectUnitSpansOnSegmentLaunch(units);
}

TEST(ProfilerTest, RgcnAndSagePoolEveryUnitSpanReportsTilePlan) {
  // The typed (R-GCN) and max (SAGE max-pool) aggregations, forward and
  // backward, run on the segment launch like every other unit.
  TrainConfig train;
  train.epochs = 1;
  train.warmup_epochs = 0;
  const auto traced_units = [&](GnnModel& model, const Dataset& data) {
    const int64_t tiled_before = TiledUnits()->value();
    Tracer tracer(TracerConfig{}, Retention::kRun);
    {
      ScopedRun run(&tracer, model.name(), "train");
      TrainNodeClassification(model, data, train);
    }
    const std::vector<Span> units = SpansInCategory(tracer, "unit");
    EXPECT_EQ(TiledUnits()->value() - tiled_before, static_cast<int64_t>(units.size()));
    return units;
  };
  {
    DatasetOptions options;
    options.scale = 0.03;
    const Dataset data = MakeDataset(*FindDataset("aifb"), options);
    RgcnConfig config;
    config.mode = RgcnMode::kSeastar;
    Rgcn model(data, config);
    const std::vector<Span> units = traced_units(model, data);
    SCOPED_TRACE("R-GCN");
    // Two layers, one typed-sum forward and one per-(type, source) backward
    // unit each.
    EXPECT_EQ(units.size(), 4u);
    ExpectUnitSpansOnSegmentLaunch(units);
  }
  {
    DatasetOptions options;
    options.scale = 0.06;
    options.max_feature_dim = 32;
    const Dataset data = MakeDataset(*FindDataset("cora"), options);
    SageConfig config;
    config.hidden_dim = 8;
    config.aggregator = SageAggregator::kPool;
    Sage model(data, config, std::move(*ExecutorFactory::Create("seastar")));
    const std::vector<Span> units = traced_units(model, data);
    SCOPED_TRACE("SAGE max-pool");
    EXPECT_FALSE(units.empty());
    ExpectUnitSpansOnSegmentLaunch(units);
  }
}

}  // namespace
}  // namespace seastar
