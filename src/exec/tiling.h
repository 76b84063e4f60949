// Cache-blocked tiling plans for the fused units (FeatGraph-style, see
// PAPERS.md): the segment launch in src/exec/seastar_executor.cc runs one
// block per segment of a unit's plan.
//
//  * CSR segment blocking. Destination positions (degree-sorted CSR order)
//    are partitioned into contiguous segments sized so one segment's source-
//    feature working set — its edge count times one feature tile's bytes —
//    stays L2-resident across the segment's whole edge loop. Consecutive
//    destinations share sources (community structure, and degree sorting
//    clusters the hubs), so re-touched source rows hit cache instead of DRAM.
//  * Feature-dimension tiling. Wide feature rows are reduced one column
//    tile at a time: each pass only touches tile_width columns of every
//    source row. For narrow features (width <= max_tile_width) there is
//    exactly one tile and only segment blocking remains.
//
// Inside a segment the edge prologue runs over L1-sized chunks of the
// segment's (contiguous) CSR slots; that batch geometry is fixed per unit at
// compile time (CompiledUnit::batch_edges), so the plan does not count it.
//
// A TilePlan is pure geometry — position boundaries plus a tile width. Any
// partition is *correct* (each destination's slots are reduced exactly once
// per tile, in slot order, and columns are independent), so the plan only
// shapes locality and parallel grain, never results. Plans are computed from
// the CSR's offset (degree) array at first use and memoized on the
// CompiledProgram (see compiled_program.h), which lives in the process-wide
// plan cache: steady-state epochs reuse the plan without re-deriving it.
//
// SetTilingEnabled(false) plans every unit as SingleSegmentPlan — one
// segment, one tile — and runs it through the same code, so toggling changes
// the partition only and outputs stay bit-identical. The tiled-vs-untiled
// parity tests and the kernel sweep are built on it.
#ifndef SRC_EXEC_TILING_H_
#define SRC_EXEC_TILING_H_

#include <cstdint>
#include <vector>

namespace seastar {

// Whether units run on ComputeTilePlan (true, the default) or
// SingleSegmentPlan. Tests and A/B benches switch it with SetTilingEnabled.
bool TilingEnabled();
void SetTilingEnabled(bool enabled);

struct TilePlan {
  // Columns per feature tile: min(feature_width, max_tile_width) from
  // ComputeTilePlan, the whole row from SingleSegmentPlan.
  int32_t tile_width = 0;
  // Number of feature tiles = ceil(feature_width / tile_width).
  int32_t num_tiles = 0;
  // Position-range boundaries: segment s covers CSR positions
  // [bounds[s], bounds[s+1]). Size num_segments() + 1; bounds[0] == 0 and
  // bounds.back() == num_vertices.
  std::vector<int64_t> bounds;

  int64_t num_segments() const { return static_cast<int64_t>(bounds.size()) - 1; }
};

struct TilePlanOptions {
  // Working-set budgets. Deliberately half of the typical 64 KiB L1d /
  // 1 MiB-ish L2 so destination rows, accumulators and the CSR index arrays
  // fit beside the source tiles.
  int64_t l1_budget_bytes = 32 * 1024;
  int64_t l2_budget_bytes = 512 * 1024;
  // Upper bound on tile width (floats). Every extra tile re-walks the
  // segment's CSR indices and re-enters the edge-loop kernel once more per
  // edge, so narrow tiles only pay when the row slice they save is large:
  // the kernel sweep (bench_kernels_micro --sweep-out=...) measured width-64
  // tiles at feature dim 256 losing ~30% to that re-walk while a single
  // 256-wide pass (1 KiB per source row, still a handful of cache lines)
  // matches or beats untiled. Multi-tile passes therefore engage only past
  // 256 columns.
  int32_t max_tile_width = 256;
  // Keep at least ~this many segments per worker so the segment launch still
  // load-balances across the pool (a tiny graph must not collapse to one
  // work item when several workers are idle).
  int64_t segments_per_worker = 4;
};

// Derives a plan from the CSR's offsets (the cached degree information):
// greedy contiguous packing of positions until a segment's edge working set
// (edges * tile_width * 4B) would exceed the L2 budget, its vertex count
// would exceed the balance cap, or the per-worker parallel grain would be
// lost. Every segment holds >= 1 position, so a single hub vertex whose
// working set alone exceeds the budget still forms a (correct) singleton
// segment.
TilePlan ComputeTilePlan(const std::vector<int64_t>& offsets, int64_t num_vertices,
                         int32_t feature_width, int num_workers,
                         const TilePlanOptions& options = {});

// The plan with tiling off: every position in one segment, the whole
// feature row in one tile.
TilePlan SingleSegmentPlan(int64_t num_vertices, int32_t feature_width);

}  // namespace seastar

#endif  // SRC_EXEC_TILING_H_
