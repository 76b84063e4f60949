// Google-benchmark micro-suite over the individual kernels the systems are
// built from: dense GEMM, the fused GAT attention kernel per backend, the
// block-dispatch disciplines, and CSR construction. Complements the
// table/figure binaries with statistically sound per-kernel numbers.
//
// --sweep-out=<path> additionally runs the tiled-vs-untiled aggregation
// sweep (CopySum / MulSum × feature dims 16/64/256, GCN's norm-scaled sum at
// 10/16, and GAT's SDDMM-shaped forward units, × uniform / power-law degree
// skew; untiled = the single-segment plan) and writes a BENCH_kernels.json
// report gated by tools/bench_check.py. The sweep checks bitwise
// tiled/untiled parity on every configuration, so the report doubles as a
// correctness probe. Before the sweep it records the host's parallel
// headroom (the gate refuses a baseline measured without it). It also times
// the dense combination kernels at the training workloads' shapes (Aᵀ·B,
// forward Matmul, dropout), each checked bit for bit against a reference
// computed another way.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/common/stopwatch.h"
#include "src/common/string_util.h"
#include "src/exec/baseline_executor.h"
#include "src/exec/seastar_executor.h"
#include "src/exec/tiling.h"
#include "src/gir/builder.h"
#include "src/graph/generators.h"
#include "src/parallel/simt.h"
#include "src/parallel/thread_pool.h"
#include "src/tensor/ops.h"
#include "src/tensor/simd.h"

namespace seastar {
namespace {

void BM_Matmul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = ops::RandomNormal({n, 128}, 0, 1, rng);
  Tensor b = ops::RandomNormal({128, 64}, 0, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::Matmul(a, b).data());
  }
  state.SetItemsProcessed(state.iterations() * n * 128 * 64);
}
BENCHMARK(BM_Matmul)->Arg(1024)->Arg(8192);

struct GatFixture {
  GatFixture() {
    Rng rng(7);
    CooEdges edges = Rmat(4000, 80000, rng);
    AddSelfLoops(edges);
    graph = ToGraph(std::move(edges));
    GirBuilder b;
    Value e = Exp(LeakyRelu(b.Src("eu", 1) + b.Dst("ev", 1), 0.2f));
    b.MarkOutput(AggSum(e / AggSum(e) * b.Src("h", 16)), "out");
    gir = b.TakeGraph();
    features.vertex["eu"] = ops::RandomNormal({graph.num_vertices(), 1}, 0, 1, rng);
    features.vertex["ev"] = ops::RandomNormal({graph.num_vertices(), 1}, 0, 1, rng);
    features.vertex["h"] = ops::RandomNormal({graph.num_vertices(), 16}, 0, 1, rng);
  }
  Graph graph;
  GirGraph gir;
  FeatureMap features;
};

GatFixture& Fixture() {
  static GatFixture* fixture = new GatFixture();
  return *fixture;
}

void BM_GatKernelSeastar(benchmark::State& state) {
  GatFixture& f = Fixture();
  SeastarExecutor executor;
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.Run(f.gir, f.graph, f.features).outputs.size());
  }
  state.SetItemsProcessed(state.iterations() * f.graph.num_edges());
}
BENCHMARK(BM_GatKernelSeastar);

void BM_GatKernelSeastarNoFusion(benchmark::State& state) {
  GatFixture& f = Fixture();
  SeastarExecutorOptions options;
  options.enable_fusion = false;
  SeastarExecutor executor(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.Run(f.gir, f.graph, f.features).outputs.size());
  }
  state.SetItemsProcessed(state.iterations() * f.graph.num_edges());
}
BENCHMARK(BM_GatKernelSeastarNoFusion);

void BM_GatKernelDglLike(benchmark::State& state) {
  GatFixture& f = Fixture();
  BaselineExecutor executor({BaselineFlavor::kDglLike});
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.Run(f.gir, f.graph, f.features).outputs.size());
  }
  state.SetItemsProcessed(state.iterations() * f.graph.num_edges());
}
BENCHMARK(BM_GatKernelDglLike);

void BM_GatKernelPygLike(benchmark::State& state) {
  GatFixture& f = Fixture();
  BaselineExecutor executor({BaselineFlavor::kPygLike});
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.Run(f.gir, f.graph, f.features).outputs.size());
  }
  state.SetItemsProcessed(state.iterations() * f.graph.num_edges());
}
BENCHMARK(BM_GatKernelPygLike);

void BM_BlockDispatch(benchmark::State& state) {
  const auto schedule = static_cast<BlockSchedule>(state.range(0));
  SimtLaunchParams params;
  params.num_blocks = 100000;
  params.schedule = schedule;
  for (auto _ : state) {
    int64_t total = 0;
    LaunchBlocks(params, [&](int64_t block, int) { benchmark::DoNotOptimize(block); });
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * params.num_blocks);
  state.SetLabel(BlockScheduleName(schedule));
}
BENCHMARK(BM_BlockDispatch)
    ->Arg(static_cast<int>(BlockSchedule::kStatic))
    ->Arg(static_cast<int>(BlockSchedule::kAtomicPerBlock))
    ->Arg(static_cast<int>(BlockSchedule::kChunkedDynamic));

void BM_CsrBuild(benchmark::State& state) {
  Rng rng(3);
  CooEdges edges = Rmat(10000, 200000, rng);
  for (auto _ : state) {
    CooEdges copy = edges;
    benchmark::DoNotOptimize(
        ToGraph(std::move(copy)).num_edges());
  }
  state.SetItemsProcessed(state.iterations() * 200000);
}
BENCHMARK(BM_CsrBuild);

// ---- Tiled-vs-untiled aggregation sweep ---------------------------------------------------------
// One data point: the same fused unit executed on the segment plan and on
// the single-segment plan (SEASTAR_TILING=0), on the same graph and
// features. Both run the same lowered code over the same SIMD gather-reduce kernels
// (src/tensor/simd.h), so the outputs must be bit-identical — the sweep
// asserts that with a memcmp per configuration, making the perf report a
// correctness probe too.
struct SweepPoint {
  std::string kernel;  // A kSweepKernels name.
  std::string skew;    // "uniform" | "zipf"
  int64_t feat_dim = 0;
  int64_t num_vertices = 0;
  int64_t num_edges = 0;
  double untiled_ms = 0.0;
  double tiled_ms = 0.0;
  bool bitwise_equal = false;
  double max_abs_diff = 0.0;
  int64_t tile_segments = 0;  // Segments one tiled run executed.
};

// Best-of-N wall time for one executor pass; the minimum is the standard
// noise filter on a shared runner (every perturbation only adds time).
template <typename Fn>
double BestOfMs(int reps, const Fn& fn) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    Stopwatch watch;
    fn();
    best = std::min(best, watch.ElapsedMillis());
  }
  return best;
}

// One sweep kernel: a single-unit vertex program at feature width d.
struct SweepKernel {
  const char* name;
  std::vector<int64_t> dims;
  Value (*program)(GirBuilder& b, int32_t d);
};

// The SpMM-shaped reductions (copy-sum, mul-sum, and GCN's own neighbour-
// scaled sum at its hidden and class widths, the kAxpy reduction) and GAT's
// two SDDMM-shaped forward units: the edge score Add+LeakyRelu+Exp+AggSum
// and the weighted aggregation Div+Mul+AggSum (edge score / key-side sum,
// times u.h).
const SweepKernel kSweepKernels[] = {
    {"copy_sum", {16, 64, 256}, [](GirBuilder& b, int32_t d) { return AggSum(b.Src("h", d)); }},
    {"mul_sum",
     {16, 64, 256},
     [](GirBuilder& b, int32_t d) { return AggSum(b.Src("h", d) * b.Dst("g", d)); }},
    {"gcn_norm",
     {10, 16},
     [](GirBuilder& b, int32_t d) { return AggSum(b.Src("h", d) * b.Src("norm", 1)); }},
    {"gat_score",
     {1},
     [](GirBuilder& b, int32_t) {
       return AggSum(Exp(LeakyRelu(b.Src("eu", 1) + b.Dst("ev", 1), 0.2f)));
     }},
    {"gat_weighted",
     {16, 64},
     [](GirBuilder& b, int32_t d) {
       return AggSum(b.Edge("e", 1) / b.Dst("s", 1) * b.Src("h", d));
     }},
};

std::vector<SweepPoint> RunKernelSweep() {
  const bool tiling_was_enabled = TilingEnabled();
  metrics::Counter* segments_counter =
      metrics::MetricsRegistry::Get().GetCounter("seastar_tiling_segments_total");
  std::vector<SweepPoint> points;
  constexpr int64_t kVertices = 20000;
  constexpr int64_t kEdges = 200000;
  constexpr int kReps = 3;
  for (const char* skew : {"uniform", "zipf"}) {
    Rng graph_rng(11);
    CooEdges edges = std::string(skew) == "uniform" ? ErdosRenyi(kVertices, kEdges, graph_rng)
                                                    : Rmat(kVertices, kEdges, graph_rng);
    Graph graph = ToGraph(std::move(edges));
    for (const SweepKernel& kernel : kSweepKernels) {
      for (const int64_t d : kernel.dims) {
        GirBuilder b;
        b.MarkOutput(kernel.program(b, static_cast<int32_t>(d)), "out");
        GirGraph gir = b.TakeGraph();
        Rng rng(29);
        const int64_t n = graph.num_vertices();
        FeatureMap features;
        features.vertex["h"] = ops::RandomNormal({n, d}, 0, 1, rng);
        features.vertex["g"] = ops::RandomNormal({n, d}, 0, 1, rng);
        features.vertex["eu"] = ops::RandomNormal({n, 1}, 0, 1, rng);
        features.vertex["ev"] = ops::RandomNormal({n, 1}, 0, 1, rng);
        features.vertex["s"] = ops::Exp(ops::RandomNormal({n, 1}, 0, 1, rng));
        features.vertex["norm"] = ops::RandomUniform({n, 1}, 0.1f, 1.0f, rng);
        features.edge["e"] = ops::Exp(ops::RandomNormal({graph.num_edges(), 1}, 0, 1, rng));
        SeastarExecutor executor;
        SetTilingEnabled(false);
        Tensor untiled = executor.Run(gir, graph, features).outputs.at("out");
        const double untiled_ms = BestOfMs(
            kReps, [&] { benchmark::DoNotOptimize(executor.Run(gir, graph, features).outputs); });

        SetTilingEnabled(true);
        const int64_t segments_before = segments_counter->value();
        Tensor tiled = executor.Run(gir, graph, features).outputs.at("out");
        const int64_t tile_segments = segments_counter->value() - segments_before;
        const double tiled_ms = BestOfMs(
            kReps, [&] { benchmark::DoNotOptimize(executor.Run(gir, graph, features).outputs); });

        SweepPoint point;
        point.kernel = kernel.name;
        point.skew = skew;
        point.feat_dim = d;
        point.num_vertices = graph.num_vertices();
        point.num_edges = graph.num_edges();
        point.untiled_ms = untiled_ms;
        point.tiled_ms = tiled_ms;
        point.tile_segments = tile_segments;
        point.bitwise_equal =
            tiled.numel() == untiled.numel() &&
            std::memcmp(tiled.data(), untiled.data(), sizeof(float) * tiled.numel()) == 0;
        for (int64_t i = 0; i < tiled.numel(); ++i) {
          point.max_abs_diff =
              std::max(point.max_abs_diff, std::fabs(double(tiled.data()[i]) - untiled.data()[i]));
        }
        points.push_back(std::move(point));
        std::printf("sweep %-12s %-7s d=%-3lld untiled %7.3f ms  tiled %7.3f ms  (%.2fx)  %s\n",
                    kernel.name, skew, static_cast<long long>(d), untiled_ms, tiled_ms,
                    untiled_ms / tiled_ms, points.back().bitwise_equal ? "bit-identical" : "DIFF");
      }
    }
  }
  SetTilingEnabled(tiling_was_enabled);
  return points;
}

// ---- Parallel headroom ----------------------------------------------------------------------------
// How much of the pool's parallelism the host gives this process right now:
// a fixed gather-reduce loop's one-thread time × pool participants ÷ its time
// with every participant running its own copy at once. ≈ participants on an
// idle host, ≈ 1 when other tenants hold the vCPUs — when the tiled sweep
// points lose their multi-thread speedup. Measured before the sweep so the
// report says what kind of host its tiled_ms came from.
struct Headroom {
  int workers = 0;  // Pool threads plus the calling thread.
  double headroom = 0.0;
};

Headroom MeasureParallelHeadroom() {
  // 4096 keys of 16 neighbours over 16-wide rows, walked 8 times (~1.5 ms on
  // one AVX2 core): the shared inputs and each participant's accumulator
  // ring fit in its L2, so an idle host scales the loop to every core.
  constexpr int64_t kKeys = 4096;
  constexpr int64_t kDegree = 16;
  constexpr int64_t kWidth = 16;
  constexpr int64_t kAccRows = 256;
  constexpr int kPasses = 8;
  constexpr int kReps = 7;
  Rng rng(43);
  const Tensor x = ops::RandomNormal({kKeys, kWidth}, 0, 1, rng);
  const Tensor scale = ops::RandomUniform({kKeys, 1}, 0.1f, 1.0f, rng);
  std::vector<int32_t> nbrs(static_cast<size_t>(kKeys * kDegree));
  for (int32_t& v : nbrs) {
    v = static_cast<int32_t>(rng.NextBounded(kKeys));
  }
  ThreadPool& pool = ThreadPool::Get();
  Headroom result;
  result.workers = pool.num_threads() + 1;
  std::vector<std::vector<float>> acc(static_cast<size_t>(result.workers),
                                      std::vector<float>(kAccRows * kWidth));
  const simd::Rows rows{x.data(), nbrs.data(), kWidth};
  const simd::Rows scales{scale.data(), nbrs.data(), 1};
  const auto gather_loop = [&](int worker) {
    float* out = acc[static_cast<size_t>(worker)].data();
    for (int pass = 0; pass < kPasses; ++pass) {
      for (int64_t k = 0; k < kKeys; ++k) {
        simd::AxpyGather(out + (k % kAccRows) * kWidth, rows, scales, k * kDegree,
                         (k + 1) * kDegree, 0, kWidth);
      }
    }
  };
  const double one = BestOfMs(kReps, [&] { gather_loop(0); });
  const double all = BestOfMs(kReps, [&] { pool.RunOnAllWorkers(gather_loop); });
  result.headroom = one * result.workers / std::max(all, 1e-9);
  std::printf("parallel headroom %.2f of %d workers (one %.3f ms, all %.3f ms)\n", result.headroom,
              result.workers, one, all);
  return result;
}

// ---- Dense combination kernels ------------------------------------------------------------------
// The dense ops an epoch spends its non-aggregation time in, at the shapes
// of GCN/amz_comp's first layer ([13753, 128] features, 16 hidden), of one
// GAT/cora head ([2709, 128], 8 per head), and of the two narrow column
// tails: GAT/cora's output layer ([2709, 64] to 7 classes) and GCN/amz_comp's
// second layer ([13753, 16] to 10 classes). Each point's result is compared
// bit for bit with a reference that gets there another way:
//  * matmul_at_b (the weight gradient Xᵀ·G) against
//    Matmul(Transpose(X), G) — both are one i-ascending chain per element;
//  * matmul (the forward projection X·W) against
//    MatmulTransposeA(Transpose(X), W), the same chains read the other way;
//  * dropout (at GCN/amz_comp's input and at 2709x127, not a multiple of 8
//    elements) against x * keep with keep drawn per element as
//    NextDouble() < p ? 0 : 1/(1-p), plus the Rng state after.
struct DensePoint {
  std::string kernel;
  std::string shape;
  double ms = 0.0;            // Best of kDenseReps.
  double reference_ms = 0.0;  // The reference computation, for scale.
  bool bitwise_equal = false;
};

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.numel()) == 0;
}

std::vector<DensePoint> RunDensePoints() {
  constexpr int kDenseReps = 7;
  std::vector<DensePoint> points;
  struct GemmShape {
    int64_t n, k, m;
  };
  for (const GemmShape& g : {GemmShape{13753, 128, 16}, GemmShape{2709, 128, 8},
                             GemmShape{2709, 64, 7}, GemmShape{13753, 16, 10}}) {
    Rng rng(31);
    const Tensor x = ops::RandomNormal({g.n, g.k}, 0, 1, rng);
    const Tensor grad = ops::RandomNormal({g.n, g.m}, 0, 1, rng);
    const Tensor w = ops::RandomNormal({g.k, g.m}, 0, 1, rng);
    const std::string shape =
        std::to_string(g.n) + "x" + std::to_string(g.k) + "x" + std::to_string(g.m);

    DensePoint at_b{"matmul_at_b", shape};
    at_b.bitwise_equal =
        SameBits(ops::MatmulTransposeA(x, grad), ops::Matmul(ops::Transpose(x), grad));
    at_b.ms = BestOfMs(kDenseReps,
                       [&] { benchmark::DoNotOptimize(ops::MatmulTransposeA(x, grad)); });
    at_b.reference_ms = BestOfMs(
        kDenseReps, [&] { benchmark::DoNotOptimize(ops::Matmul(ops::Transpose(x), grad)); });
    points.push_back(at_b);

    DensePoint forward{"matmul", shape};
    forward.bitwise_equal =
        SameBits(ops::Matmul(x, w), ops::MatmulTransposeA(ops::Transpose(x), w));
    forward.ms = BestOfMs(kDenseReps, [&] { benchmark::DoNotOptimize(ops::Matmul(x, w)); });
    forward.reference_ms = BestOfMs(kDenseReps, [&] {
      benchmark::DoNotOptimize(ops::MatmulTransposeA(ops::Transpose(x), w));
    });
    points.push_back(forward);
  }

  // Dropout at GCN/amz_comp's input, and at an element count that is not a
  // multiple of the 8 lanes (a serial tail and ragged lane tiles).
  struct DropoutShape {
    int64_t rows, cols;
  };
  for (const DropoutShape& d : {DropoutShape{13753, 128}, DropoutShape{2709, 127}}) {
    Rng rng(37);
    const Tensor features = ops::RandomNormal({d.rows, d.cols}, 0, 1, rng);
    const float p = 0.5f;
    const float keep = 1.0f / (1.0f - p);
    const auto reference = [&](Rng& stream) {
      Tensor out(features.shape());
      for (int64_t i = 0; i < features.numel(); ++i) {
        out.data()[i] = features.data()[i] * (stream.NextDouble() < p ? 0.0f : keep);
      }
      return out;
    };
    Rng drawn(41);
    Rng replayed(41);
    DensePoint dropout{"dropout", std::to_string(d.rows) + "x" + std::to_string(d.cols)};
    const Tensor got = ops::Dropout(features, p, drawn);
    const Tensor want = reference(replayed);
    const RngState drawn_state = drawn.SaveState();
    const RngState replayed_state = replayed.SaveState();
    dropout.bitwise_equal =
        SameBits(got, want) &&
        std::memcmp(drawn_state.words, replayed_state.words, sizeof(drawn_state.words)) == 0;
    dropout.ms =
        BestOfMs(kDenseReps, [&] { benchmark::DoNotOptimize(ops::Dropout(features, p, drawn)); });
    dropout.reference_ms =
        BestOfMs(kDenseReps, [&] { benchmark::DoNotOptimize(reference(drawn)); });
    points.push_back(dropout);
  }

  for (const DensePoint& point : points) {
    std::printf("dense %-12s %-13s %7.3f ms  reference %7.3f ms  %s\n", point.kernel.c_str(),
                point.shape.c_str(), point.ms, point.reference_ms,
                point.bitwise_equal ? "bit-identical" : "DIFF");
  }
  return points;
}

bool WriteSweepReport(const std::string& path, const Headroom& headroom,
                      const std::vector<SweepPoint>& points, const std::vector<DensePoint>& dense) {
  JsonWriter json;
  json.BeginObject();
  json.Field("bench", "kernels");
  json.Field("simd_isa", simd::SimdIsaName());
  json.Field("simd_lanes", static_cast<int64_t>(simd::SimdLanes()));
  json.Field("parallel_workers", static_cast<int64_t>(headroom.workers));
  json.FieldDouble("parallel_headroom", headroom.headroom, 3);
  json.Key("sweeps");
  json.BeginArray();
  for (const SweepPoint& point : points) {
    json.BeginObject();
    json.Field("kernel", point.kernel);
    json.Field("skew", point.skew);
    json.Field("feat_dim", point.feat_dim);
    json.Field("num_vertices", point.num_vertices);
    json.Field("num_edges", point.num_edges);
    json.FieldDouble("untiled_ms", point.untiled_ms, 3);
    json.FieldDouble("tiled_ms", point.tiled_ms, 3);
    json.FieldDouble("speedup", point.untiled_ms / std::max(point.tiled_ms, 1e-9), 3);
    json.Field("bitwise_equal", point.bitwise_equal);
    json.FieldDouble("max_abs_diff", point.max_abs_diff, 9);
    json.Field("tile_segments", point.tile_segments);
    json.EndObject();
  }
  json.EndArray();
  json.Key("dense");
  json.BeginArray();
  for (const DensePoint& point : dense) {
    json.BeginObject();
    json.Field("kernel", point.kernel);
    json.Field("shape", point.shape);
    json.FieldDouble("ms", point.ms, 3);
    json.FieldDouble("reference_ms", point.reference_ms, 3);
    json.Field("bitwise_equal", point.bitwise_equal);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.WriteToFile(path);
}

}  // namespace
}  // namespace seastar

// Custom main instead of BENCHMARK_MAIN(): strip --metrics-out/--metrics-text
// before google-benchmark sees them (it rejects unknown flags), then dump the
// registry after the suite runs.
int main(int argc, char** argv) {
  const std::string metrics_out = seastar::FlagValue(argc, argv, "metrics-out", "");
  const std::string metrics_text = seastar::FlagValue(argc, argv, "metrics-text", "");
  const std::string sweep_out = seastar::FlagValue(argc, argv, "sweep-out", "");
  std::vector<char*> passthrough;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--metrics-out=", 0) == 0 || arg.rfind("--metrics-text=", 0) == 0 ||
        arg.rfind("--sweep-out=", 0) == 0) {
      continue;
    }
    passthrough.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!sweep_out.empty()) {
    const seastar::Headroom headroom = seastar::MeasureParallelHeadroom();
    const std::vector<seastar::SweepPoint> points = seastar::RunKernelSweep();
    const std::vector<seastar::DensePoint> dense = seastar::RunDensePoints();
    if (!seastar::WriteSweepReport(sweep_out, headroom, points, dense)) {
      std::fprintf(stderr, "cannot write %s\n", sweep_out.c_str());
      return 1;
    }
    std::printf("sweep report: %s\n", sweep_out.c_str());
  }
  seastar::metrics::MetricsRegistry& registry = seastar::metrics::MetricsRegistry::Get();
  if (!metrics_out.empty() && !registry.WriteJsonFile(metrics_out)) {
    return 1;
  }
  if (!metrics_text.empty() && !registry.WriteTextFile(metrics_text)) {
    return 1;
  }
  return 0;
}
