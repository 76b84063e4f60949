#include "src/exec/tiling.h"

#include <algorithm>
#include <atomic>

#include "src/common/logging.h"

namespace seastar {
namespace {

std::atomic<bool>& TilingFlag() {
  static std::atomic<bool> enabled{true};
  return enabled;
}

}  // namespace

bool TilingEnabled() { return TilingFlag().load(std::memory_order_relaxed); }

void SetTilingEnabled(bool enabled) {
  TilingFlag().store(enabled, std::memory_order_relaxed);
}

TilePlan ComputeTilePlan(const std::vector<int64_t>& offsets, int64_t num_vertices,
                         int32_t feature_width, int num_workers,
                         const TilePlanOptions& options) {
  SEASTAR_CHECK_EQ(static_cast<int64_t>(offsets.size()), num_vertices + 1);
  SEASTAR_CHECK_GT(feature_width, 0);

  TilePlan plan;
  plan.tile_width = std::min(feature_width, options.max_tile_width);
  plan.num_tiles = static_cast<int32_t>((feature_width + plan.tile_width - 1) / plan.tile_width);

  const int64_t total_edges = offsets[static_cast<size_t>(num_vertices)];
  const int64_t tile_bytes = static_cast<int64_t>(plan.tile_width) * 4;

  // Edge budget per segment: the L2 bound (each edge drags in at most one
  // source-row tile), tightened so the launch still yields a few segments
  // per worker on small graphs. Vertex cap: the zero/low-degree tail of a
  // degree-sorted CSR packs millions of positions into no edges at all;
  // bounding positions keeps those segments balanced for the per-vertex
  // (init + store) work that remains.
  const int64_t workers = std::max(1, num_workers);
  const int64_t parallel_grain =
      std::max<int64_t>(1, total_edges / (options.segments_per_worker * workers));
  const int64_t edge_budget =
      std::max<int64_t>(1, std::min(options.l2_budget_bytes / tile_bytes, parallel_grain));
  const int64_t vertex_cap = std::max<int64_t>(
      1024, num_vertices / (options.segments_per_worker * workers));

  plan.bounds.reserve(16);
  plan.bounds.push_back(0);
  int64_t seg_start = 0;
  for (int64_t pos = 0; pos < num_vertices; ++pos) {
    const int64_t seg_edges = offsets[static_cast<size_t>(pos) + 1] -
                              offsets[static_cast<size_t>(seg_start)];
    const int64_t seg_vertices = pos + 1 - seg_start;
    if ((seg_edges > edge_budget || seg_vertices > vertex_cap) && seg_vertices > 1) {
      // Close the segment *before* `pos` (pos overflowed the budget);
      // a single over-budget vertex still forms its own segment.
      plan.bounds.push_back(pos);
      seg_start = pos;
    }
  }
  plan.bounds.push_back(num_vertices);
  // A graph with zero vertices degenerates to one empty segment.
  if (num_vertices == 0) {
    plan.bounds = {0, 0};
  }
  return plan;
}

TilePlan SingleSegmentPlan(int64_t num_vertices, int32_t feature_width) {
  TilePlan plan;
  plan.tile_width = feature_width;
  plan.num_tiles = 1;
  plan.bounds = {0, num_vertices};
  return plan;
}

}  // namespace seastar
