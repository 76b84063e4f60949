// Tests for the cache-blocked tiled aggregation path (src/exec/tiling.h):
// tile-plan geometry invariants, bit-exact tiled-vs-untiled training parity
// for GCN / GAT / GraphSAGE (mean and max-pool) on the full-graph and
// sharded executors and for R-GCN's batched typed aggregation, and
// the dense-GEMM panel-tail regression cases (feature dims that are not a
// multiple of the 16-wide micro-kernel panel).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <vector>

#include "src/common/rng.h"
#include "src/core/executor_factory.h"
#include "src/core/models/gat.h"
#include "src/core/models/gcn.h"
#include "src/core/models/rgcn.h"
#include "src/core/models/sage.h"
#include "src/core/train.h"
#include "src/exec/seastar_executor.h"
#include "src/exec/tiling.h"
#include "src/gir/builder.h"
#include "src/graph/datasets.h"
#include "src/graph/generators.h"
#include "src/tensor/ops.h"

namespace seastar {
namespace {

// Restores the process-wide tiling flag on scope exit so a failing test
// cannot leak a disabled tiled path into the rest of the suite.
class TilingFlagGuard {
 public:
  TilingFlagGuard() : saved_(TilingEnabled()) {}
  ~TilingFlagGuard() { SetTilingEnabled(saved_); }

 private:
  bool saved_;
};

std::vector<int64_t> OffsetsFromDegrees(const std::vector<int64_t>& degrees) {
  std::vector<int64_t> offsets(degrees.size() + 1, 0);
  std::partial_sum(degrees.begin(), degrees.end(), offsets.begin() + 1);
  return offsets;
}

// ---- Tile-plan geometry -------------------------------------------------------------------------

TEST(TilePlanTest, BoundsPartitionAllPositions) {
  std::vector<int64_t> degrees(1000);
  Rng rng(5);
  for (int64_t& d : degrees) {
    d = static_cast<int64_t>(rng.NextBounded(40));
  }
  const std::vector<int64_t> offsets = OffsetsFromDegrees(degrees);
  const TilePlan plan = ComputeTilePlan(offsets, 1000, 32, 4);
  ASSERT_GE(plan.num_segments(), 1);
  EXPECT_EQ(plan.bounds.front(), 0);
  EXPECT_EQ(plan.bounds.back(), 1000);
  for (size_t s = 1; s < plan.bounds.size(); ++s) {
    EXPECT_LT(plan.bounds[s - 1], plan.bounds[s]) << "empty or reversed segment " << s;
  }
  EXPECT_EQ(plan.tile_width, 32);
  EXPECT_EQ(plan.num_tiles, 1);
}

TEST(TilePlanTest, EmptyGraphYieldsSingleEmptySegmentRange) {
  const TilePlan plan = ComputeTilePlan({0}, 0, 16, 4);
  EXPECT_EQ(plan.bounds.front(), 0);
  EXPECT_EQ(plan.bounds.back(), 0);
}

TEST(TilePlanTest, WideFeaturesSplitIntoTiles) {
  std::vector<int64_t> degrees(100, 10);
  const std::vector<int64_t> offsets = OffsetsFromDegrees(degrees);
  TilePlanOptions options;
  const TilePlan plan = ComputeTilePlan(offsets, 100, options.max_tile_width * 4, 1, options);
  EXPECT_EQ(plan.tile_width, options.max_tile_width);
  EXPECT_EQ(plan.num_tiles, 4);
  // Non-multiple widths round the last tile down, never up.
  const TilePlan ragged = ComputeTilePlan(offsets, 100, options.max_tile_width * 2 + 7, 1, options);
  EXPECT_EQ(ragged.tile_width, options.max_tile_width);
  EXPECT_EQ(ragged.num_tiles, 3);
}

TEST(TilePlanTest, HubVertexFormsSingletonSegment) {
  // One vertex whose working set alone exceeds the L2 budget must still get
  // a (correct) segment of its own rather than stalling the packer.
  TilePlanOptions options;
  options.l2_budget_bytes = 1024;
  std::vector<int64_t> degrees = {2, 100000, 3, 1};
  const std::vector<int64_t> offsets = OffsetsFromDegrees(degrees);
  const TilePlan plan = ComputeTilePlan(offsets, 4, 64, 1, options);
  EXPECT_EQ(plan.bounds.front(), 0);
  EXPECT_EQ(plan.bounds.back(), 4);
  bool hub_is_singleton = false;
  for (size_t s = 1; s < plan.bounds.size(); ++s) {
    if (plan.bounds[s - 1] <= 1 && 1 < plan.bounds[s]) {
      hub_is_singleton = plan.bounds[s] - plan.bounds[s - 1] == 1;
    }
  }
  EXPECT_TRUE(hub_is_singleton);
}

TEST(TilePlanTest, SegmentEdgeBudgetRespectedForNonSingletons) {
  std::vector<int64_t> degrees(512, 64);
  const std::vector<int64_t> offsets = OffsetsFromDegrees(degrees);
  TilePlanOptions options;
  options.l2_budget_bytes = 64 * 1024;
  const TilePlan plan = ComputeTilePlan(offsets, 512, 64, 1, options);
  const int64_t edge_budget = options.l2_budget_bytes / (plan.tile_width * 4);
  for (size_t s = 1; s < plan.bounds.size(); ++s) {
    const int64_t seg_edges = offsets[plan.bounds[s]] - offsets[plan.bounds[s - 1]];
    const int64_t seg_vertices = plan.bounds[s] - plan.bounds[s - 1];
    if (seg_vertices > 1) {
      EXPECT_LE(seg_edges, edge_budget) << "segment " << s;
    }
  }
}

// ---- Tiled-vs-untiled training parity -----------------------------------------------------------
// The tiled and untiled edge loops share the runtime-dispatched SIMD row
// kernels and columns are independent, so re-partitioning the loops must not
// change one bit of any forward value or gradient. Training a model for a
// few epochs and comparing the final loss with EXPECT_EQ (not NEAR) checks
// the whole forward+backward pipeline end to end.

Dataset SmallCora(double scale = 0.08) {
  DatasetOptions options;
  options.scale = scale;
  options.max_feature_dim = 32;
  return MakeDataset(*FindDataset("cora"), options);
}

template <typename Model, typename Config>
float TrainLoss(const Dataset& data, const Config& config, const char* spec, bool tiled) {
  SetTilingEnabled(tiled);
  Model model(data, config, std::move(*ExecutorFactory::Create(spec)));
  TrainConfig train;
  train.epochs = 3;
  train.warmup_epochs = 0;
  return TrainNodeClassification(model, data, train).final_loss;
}

TEST(TilingParityTest, GcnLossBitIdenticalTiledVsUntiled) {
  TilingFlagGuard guard;
  Dataset data = SmallCora();
  GcnConfig config;
  for (const char* spec : {"seastar", "sharded:4"}) {
    const float untiled = TrainLoss<Gcn>(data, config, spec, false);
    const float tiled = TrainLoss<Gcn>(data, config, spec, true);
    EXPECT_EQ(untiled, tiled) << spec;
  }
}

TEST(TilingParityTest, GatLossBitIdenticalTiledVsUntiled) {
  TilingFlagGuard guard;
  Dataset data = SmallCora(0.06);
  GatConfig config;
  config.num_heads = 2;
  config.hidden_dim = 4;
  for (const char* spec : {"seastar", "sharded:4"}) {
    const float untiled = TrainLoss<Gat>(data, config, spec, false);
    const float tiled = TrainLoss<Gat>(data, config, spec, true);
    EXPECT_EQ(untiled, tiled) << spec;
  }
}

TEST(TilingParityTest, SageLossBitIdenticalTiledVsUntiled) {
  TilingFlagGuard guard;
  Dataset data = SmallCora();
  SageConfig config;
  config.hidden_dim = 8;
  for (const char* spec : {"seastar", "sharded:4"}) {
    const float untiled = TrainLoss<Sage>(data, config, spec, false);
    const float tiled = TrainLoss<Sage>(data, config, spec, true);
    EXPECT_EQ(untiled, tiled) << spec;
  }
}

TEST(TilingParityTest, SagePoolLossBitIdenticalTiledVsUntiled) {
  // The max-pool aggregator: max units forward, their arg-max masks
  // backward.
  TilingFlagGuard guard;
  Dataset data = SmallCora();
  SageConfig config;
  config.hidden_dim = 8;
  config.aggregator = SageAggregator::kPool;
  for (const char* spec : {"seastar", "sharded:4"}) {
    const float untiled = TrainLoss<Sage>(data, config, spec, false);
    const float tiled = TrainLoss<Sage>(data, config, spec, true);
    EXPECT_EQ(untiled, tiled) << spec;
  }
}

TEST(TilingParityTest, RgcnLossBitIdenticalTiledVsUntiled) {
  // The batched Seastar mode: a typed-row sum forward, a per-(type, source)
  // aggregation backward.
  TilingFlagGuard guard;
  DatasetOptions options;
  options.scale = 0.03;
  const Dataset data = MakeDataset(*FindDataset("aifb"), options);
  RgcnConfig config;
  config.mode = RgcnMode::kSeastar;
  float loss[2];
  for (const bool tiled : {false, true}) {
    SetTilingEnabled(tiled);
    Rgcn model(data, config);
    TrainConfig train;
    train.epochs = 3;
    train.warmup_epochs = 0;
    loss[tiled] = TrainNodeClassification(model, data, train).final_loss;
  }
  EXPECT_EQ(loss[0], loss[1]);
}

// A synthetic wide-feature program that actually exercises multi-tile
// feature passes (cora-scale models stay below the single-tile cap).
TEST(TilingParityTest, WideFeatureForwardBitIdenticalTiledVsUntiled) {
  TilingFlagGuard guard;
  Rng rng(17);
  Graph graph = ToGraph(Rmat(500, 4000, rng));
  GirBuilder b;
  b.MarkOutput(AggSum(b.Src("h", 320)), "out");
  GirGraph gir = b.TakeGraph();
  FeatureMap features;
  features.vertex["h"] = ops::RandomNormal({graph.num_vertices(), 320}, 0, 1, rng);
  SeastarExecutor executor;
  SetTilingEnabled(false);
  Tensor untiled = executor.Run(gir, graph, features).outputs.at("out");
  SetTilingEnabled(true);
  Tensor tiled = executor.Run(gir, graph, features).outputs.at("out");
  ASSERT_EQ(tiled.numel(), untiled.numel());
  for (int64_t i = 0; i < tiled.numel(); ++i) {
    ASSERT_EQ(tiled.data()[i], untiled.data()[i]) << "element " << i;
  }
}

// ---- Dense-GEMM panel tails ---------------------------------------------------------------------
// GemmRowMajor covers full 16-column panels and the remaining columns in
// up-to-8-wide tails, all through the dispatched micro-kernels. Feature dims
// that are not a multiple of 16 (7, 10, 33, 257) must match a plain
// reference matmul on every element, including the final columns: bit for
// bit on FMA builds, where every element is one k-ascending fma chain.
// Without FMA in the build, the dispatched AVX2 kernels still fuse while the
// reference rounds each product, so there the drift is only bounded.

Tensor ReferenceMatmul(const Tensor& a, const Tensor& b) {
  const int64_t n = a.dim(0);
  const int64_t k = a.dim(1);
  const int64_t m = b.dim(1);
  Tensor out = Tensor::Zeros({n, m});
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t kk = 0; kk < k; ++kk) {
      const float av = a.data()[i * k + kk];
      for (int64_t j = 0; j < m; ++j) {
        float& o = out.data()[i * m + j];
#if defined(__FMA__)
        o = std::fma(av, b.data()[kk * m + j], o);
#else
        o += av * b.data()[kk * m + j];
#endif
      }
    }
  }
  return out;
}

void ExpectMatchesReference(const Tensor& got, const Tensor& want, int64_t k, int64_t m) {
  ASSERT_EQ(got.shape(), want.shape());
  for (int64_t i = 0; i < got.numel(); ++i) {
#if defined(__FMA__)
    ASSERT_EQ(std::memcmp(got.data() + i, want.data() + i, sizeof(float)), 0)
        << "m=" << m << " element " << i << ": " << got.data()[i] << " vs " << want.data()[i];
#else
    ASSERT_NEAR(got.data()[i], want.data()[i], 1e-4f * static_cast<float>(k))
        << "m=" << m << " element " << i;
#endif
  }
}

TEST(GemmTailTest, NonMultipleOf16ColumnCountsMatchReference) {
  Rng rng(23);
  for (const int64_t m : {int64_t{7}, int64_t{10}, int64_t{33}, int64_t{257}}) {
    const int64_t n = 37;
    const int64_t k = 51;
    Tensor a = ops::RandomNormal({n, k}, 0, 1, rng);
    Tensor b = ops::RandomNormal({k, m}, 0, 1, rng);
    ExpectMatchesReference(ops::Matmul(a, b), ReferenceMatmul(a, b), k, m);
    // The weight gradient reads Aᵀ in place through the same tiles.
    Tensor g = ops::RandomNormal({n, m}, 0, 1, rng);
    ExpectMatchesReference(ops::MatmulTransposeA(a, g), ReferenceMatmul(ops::Transpose(a), g), n,
                           m);
  }
}

TEST(GemmTailTest, TransposeBTailsMatchReference) {
  Rng rng(29);
  for (const int64_t m : {int64_t{7}, int64_t{10}, int64_t{33}, int64_t{257}}) {
    const int64_t n = 21;
    const int64_t k = 19;
    Tensor a = ops::RandomNormal({n, k}, 0, 1, rng);
    Tensor b = ops::RandomNormal({m, k}, 0, 1, rng);
    ExpectMatchesReference(ops::MatmulTransposeB(a, b), ReferenceMatmul(a, ops::Transpose(b)), k,
                           m);
  }
}

}  // namespace
}  // namespace seastar
