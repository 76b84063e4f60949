#include "src/exec/seastar_executor.h"

#include <atomic>
#include <cfloat>
#include <cmath>
#include <cstring>

#include "src/common/deadline.h"
#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/common/tracing.h"
#include "src/exec/compiled_program.h"
#include "src/exec/kernel_counter.h"
#include "src/exec/plan_cache.h"
#include "src/exec/pointwise.h"
#include "src/exec/tiling.h"
#include "src/parallel/thread_pool.h"
#include "src/tensor/allocator.h"
#include "src/tensor/simd.h"

namespace seastar {

using trace::Arg;
namespace {

// Always-on per-tile observability (cached handles; bumped once per unit
// launch on the orchestration path, never inside the edge loops). The SIMD
// dispatch counter bakes the resolved ISA into a label, Prometheus-style, so
// an exporter shows which row-kernel variant this process actually ran.
struct TilingCounters {
  metrics::Counter* segments;        // seastar_tiling_segments_total
  metrics::Counter* tile_passes;     // seastar_tiling_tile_passes_total
  metrics::Counter* edge_visits;     // seastar_tiling_edge_visits_total
  metrics::Counter* tiled_units;     // seastar_tiling_units_tiled_total
  metrics::Counter* untiled_units;   // seastar_tiling_units_untiled_total
  metrics::Counter* simd_dispatch;   // seastar_simd_unit_dispatch_total{isa=...}
};

const TilingCounters& Tiling() {
  static const TilingCounters counters = [] {
    metrics::MetricsRegistry& registry = metrics::MetricsRegistry::Get();
    TilingCounters c;
    c.segments = registry.GetCounter("seastar_tiling_segments_total");
    c.tile_passes = registry.GetCounter("seastar_tiling_tile_passes_total");
    c.edge_visits = registry.GetCounter("seastar_tiling_edge_visits_total");
    c.tiled_units = registry.GetCounter("seastar_tiling_units_tiled_total");
    c.untiled_units = registry.GetCounter("seastar_tiling_units_untiled_total");
    c.simd_dispatch = registry.GetCounter(std::string("seastar_simd_unit_dispatch_total{isa=\"") +
                                          simd::SimdIsaName() + "\"}");
    registry.GetGauge("seastar_simd_lanes")->Set(static_cast<double>(simd::SimdLanes()));
    return c;
  }();
  return counters;
}

inline const float* Resolve(const Operand& op, const float* scratch, int64_t key, int64_t nbr,
                            int64_t eid, int32_t etype, int64_t typed_stride) {
  switch (op.src) {
    case Src::kReg:
      return scratch + op.reg;
    case Src::kKeyRow:
      return op.base + key * op.width;
    case Src::kNbrRow:
      return op.base + nbr * op.width;
    case Src::kEdgeRow:
      return op.base + eid * op.width;
    case Src::kTypedRow:
      return op.base + (static_cast<int64_t>(etype) * typed_stride + nbr) * op.width;
    case Src::kScalar:
      return &op.scalar;
  }
  return nullptr;
}

// Evaluates one pointwise instruction into scratch.
inline void EvalInstr(const Instr& instr, float* scratch, const float* a, const float* b) {
  PointwiseApply(instr.kind, instr.attr, scratch + instr.out_reg, instr.width, a, instr.a.width,
                 b, instr.b.width);
}

inline void AtomicStoreRow(float* dst, const float* src, int32_t width) {
  // Benign overwrite of identical values from concurrent FAT groups;
  // relaxed atomics keep it defined behaviour.
  for (int32_t j = 0; j < width; ++j) {
    std::atomic_ref<float>(dst[j]).store(src[j], std::memory_order_relaxed);
  }
}

// Per-worker hot-loop counter, cacheline-padded against false sharing.
struct alignas(64) WorkerEdgeCount {
  int64_t edges = 0;
};

// ---- FastPath edge loops ------------------------------------------------------------------------
// Operand resolution for the specialized loops: registers, immediates and key
// rows do not change across one vertex's edge loop and collapse to a single
// pointer; nbr/edge rows index their base per slot.
enum class RowVary : uint8_t { kFixed, kNbr, kEdge };

inline RowVary ClassifyRow(const Operand& op, const float* scratch, int64_t key,
                           const float** fixed) {
  switch (op.src) {
    case Src::kReg:
      *fixed = scratch + op.reg;
      return RowVary::kFixed;
    case Src::kScalar:
      *fixed = &op.scalar;
      return RowVary::kFixed;
    case Src::kKeyRow:
      *fixed = op.base + key * op.width;
      return RowVary::kFixed;
    case Src::kNbrRow:
      return RowVary::kNbr;
    case Src::kEdgeRow:
      return RowVary::kEdge;
    case Src::kTypedRow:
      break;  // Excluded by fast-path detection.
  }
  return RowVary::kFixed;
}

// Fused replacements for the interpreted edge loop (semantics identical; see
// FastPath in compiled_program.h). These exist because per-edge dispatch —
// two operand switches, an op switch and an agg switch — costs more than the
// arithmetic itself at GNN feature widths.
//
// The loop is column-ranged: it accumulates columns [c0, c0 + n) of the
// feature row into `acc[0 .. n)`. The untiled path calls it once per vertex
// with the full width; the tiled path calls it once per (vertex, feature
// tile). Both route every column through the *same* runtime-dispatched SIMD
// kernel (src/tensor/simd.h), and each kernel is elementwise-independent
// across columns, so the two partitionings produce bit-identical results —
// the invariant the SEASTAR_TILING=0 parity tests pin down.
inline void RunFastEdgeLoop(const CompiledUnit& unit, const Csr& csr, float* scratch, float* acc,
                            int64_t key, int64_t begin, int64_t end, int32_t c0, int32_t n) {
  const AggInstr& agg = unit.aggs[0];
  const int32_t w = agg.width;

  if (unit.fast_path == FastPath::kCopySum) {
    const Operand& in = agg.input;
    const float* fixed = nullptr;
    const RowVary vary = ClassifyRow(in, scratch, key, &fixed);
    const auto row = [&](int64_t slot) {
      return vary == RowVary::kFixed
                 ? fixed
                 : in.base + (vary == RowVary::kNbr ? csr.nbr_ids[static_cast<size_t>(slot)]
                                                    : csr.edge_ids[static_cast<size_t>(slot)]) *
                                 in.width;
    };
    if (in.width == 1 && w > 1) {
      for (int64_t slot = begin; slot < end; ++slot) {
        simd::AddScalarRow(acc, row(slot)[0], n);
      }
    } else {
      for (int64_t slot = begin; slot < end; ++slot) {
        simd::AddRow(acc, row(slot) + c0, n);
      }
    }
    return;
  }

  // kMulSum: acc[j] += a[j] * b[j], width-1 broadcast on either operand.
  const Instr& mul = unit.edge[0];
  const int32_t wa = mul.a.width;
  const int32_t wb = mul.b.width;
  const float* a_fixed = nullptr;
  const float* b_fixed = nullptr;
  const RowVary a_vary = ClassifyRow(mul.a, scratch, key, &a_fixed);
  const RowVary b_vary = ClassifyRow(mul.b, scratch, key, &b_fixed);
  const auto a_row = [&](int64_t slot) {
    return a_vary == RowVary::kFixed
               ? a_fixed
               : mul.a.base + (a_vary == RowVary::kNbr ? csr.nbr_ids[static_cast<size_t>(slot)]
                                                       : csr.edge_ids[static_cast<size_t>(slot)]) *
                                  wa;
  };
  const auto b_row = [&](int64_t slot) {
    return b_vary == RowVary::kFixed
               ? b_fixed
               : mul.b.base + (b_vary == RowVary::kNbr ? csr.nbr_ids[static_cast<size_t>(slot)]
                                                       : csr.edge_ids[static_cast<size_t>(slot)]) *
                                  wb;
  };
  if (wa == w && wb == 1) {
    for (int64_t slot = begin; slot < end; ++slot) {
      simd::AxpyRow(acc, a_row(slot) + c0, b_row(slot)[0], n);
    }
  } else if (wa == 1 && wb == w) {
    for (int64_t slot = begin; slot < end; ++slot) {
      simd::AxpyRow(acc, b_row(slot) + c0, a_row(slot)[0], n);
    }
  } else if (wa == w && wb == w) {
    for (int64_t slot = begin; slot < end; ++slot) {
      simd::MulAddRow(acc, a_row(slot) + c0, b_row(slot) + c0, n);
    }
  } else {
    // Unusual width mix; broadcast-indexed scalar form. Never tiled
    // (`tilable` requires one of the three shapes above), so c0 == 0 here.
    for (int64_t slot = begin; slot < end; ++slot) {
      const float* x = a_row(slot);
      const float* y = b_row(slot);
      for (int32_t j = 0; j < w; ++j) {
        acc[j] = __builtin_fmaf(x[wa == 1 ? 0 : j], y[wb == 1 ? 0 : j], acc[j]);
      }
    }
  }
}

}  // namespace

ExecutionPlan SeastarExecutor::Plan(const GirGraph& gir) const {
  FusionOptions fusion_options;
  fusion_options.enable_fusion = options_.enable_fusion;
  return BuildExecutionPlan(gir, fusion_options);
}

RunResult SeastarExecutor::Run(const GirGraph& gir, const Graph& graph,
                               const FeatureMap& features, const RunContext& ctx) const {
  // With no ambient trace installed every hook below is a branch on
  // `traced`, on the orchestration path only.
  trace::AmbientSpan run_span("seastar", "exec");
  const bool traced = run_span.active();
  const TensorAllocator& allocator = TensorAllocator::Get();
  const uint64_t run_live_before = allocator.live_bytes();
  const uint64_t run_peak_before = allocator.peak_bytes();
  const uint64_t run_pool_hits_before = allocator.pool_hits();
  const uint64_t run_fresh_mallocs_before = allocator.fresh_mallocs();

  // Plan + register-compile once per distinct GIR, process-wide (keyed on
  // content fingerprint and fusion options): epoch N>1 reuses the compiled
  // template and only rebinds base pointers below.
  FusionOptions fusion_options;
  fusion_options.enable_fusion = options_.enable_fusion;
  bool plan_hit = false;
  const std::shared_ptr<const CompiledProgram> program =
      PlanCache::Get().GetOrCompile(gir, fusion_options, &plan_hit);
  const ExecutionPlan& plan = program->plan;

  const int64_t num_vertices = graph.num_vertices();
  const int64_t num_edges = graph.num_edges();
  const int32_t num_types = graph.num_edge_types();

  // Materialized tensors by node id.
  auto saved = std::make_shared<std::map<int32_t, Tensor>>();
  // Leaf bindings by node id (not owned by `saved` — caller inputs, plus the
  // graph's cached degree tensors).
  std::map<int32_t, Tensor> leaf_value;

  // Bind leaves. Scalars (P-typed constants and arithmetic on them) were
  // already evaluated at compile time into program->scalar_value.
  for (const Node& node : gir.nodes()) {
    switch (node.kind) {
      case OpKind::kInput: {
        if (node.type == GraphType::kEdge) {
          auto it = features.edge.find(node.name);
          SEASTAR_CHECK(it != features.edge.end()) << "missing edge feature '" << node.name << "'";
          SEASTAR_CHECK_EQ(it->second.dim(0), num_edges);
          SEASTAR_CHECK_EQ(it->second.dim(1), node.width);
          leaf_value[node.id] = it->second;
        } else {
          auto it = features.vertex.find(node.name);
          SEASTAR_CHECK(it != features.vertex.end())
              << "missing vertex feature '" << node.name << "'";
          SEASTAR_CHECK_EQ(it->second.dim(0), num_vertices);
          SEASTAR_CHECK_EQ(it->second.dim(1), node.width);
          leaf_value[node.id] = it->second;
        }
        break;
      }
      case OpKind::kInputTypedSrc: {
        auto it = features.typed_vertex.find(node.name);
        SEASTAR_CHECK(it != features.typed_vertex.end())
            << "missing typed feature '" << node.name << "'";
        SEASTAR_CHECK_EQ(it->second.ndim(), 3);
        SEASTAR_CHECK_EQ(it->second.dim(0), num_types);
        SEASTAR_CHECK_EQ(it->second.dim(1), num_vertices);
        SEASTAR_CHECK_EQ(it->second.dim(2), node.width);
        leaf_value[node.id] = it->second;
        break;
      }
      case OpKind::kDegree:
        // Shallow copies of the graph's lazily-built caches.
        leaf_value[node.id] =
            node.type == GraphType::kDst ? graph.InDegreeTensor() : graph.OutDegreeTensor();
        break;
      default:
        break;
    }
  }

  // Allocate materialized tensors (served from the allocator's pool in
  // steady state — same shapes every epoch).
  for (int32_t id = 0; id < gir.num_nodes(); ++id) {
    if (!plan.materialized[static_cast<size_t>(id)]) {
      continue;
    }
    const Node& node = gir.node(id);
    Tensor tensor;
    if (node.kind == OpKind::kAggTypedToSrc) {
      tensor = Tensor::Zeros({num_types, num_vertices, node.width});
    } else if (node.type == GraphType::kEdge) {
      tensor = Tensor({num_edges, node.width});
    } else {
      tensor = Tensor({num_vertices, node.width});
    }
    (*saved)[id] = std::move(tensor);
  }

  // Per-run base-pointer table, indexed by node id; PatchUnit splices these
  // into copies of the compiled templates.
  std::vector<float*> node_base(static_cast<size_t>(gir.num_nodes()), nullptr);
  for (auto& [id, tensor] : leaf_value) {
    node_base[static_cast<size_t>(id)] = tensor.data();
  }
  for (auto& [id, tensor] : *saved) {
    node_base[static_cast<size_t>(id)] = tensor.data();
  }

  // Traced-only per-worker traversal counters, zeroed per unit and merged
  // after its launch (never touched untraced; one padded slot per worker so
  // the edge loop stays contention-free).
  const int num_workers = ThreadPool::Current().num_threads() + 1;
  std::vector<WorkerEdgeCount> edge_counts(traced ? static_cast<size_t>(num_workers) : 0);
  WorkerEdgeCount* edge_slots = edge_counts.empty() ? nullptr : edge_counts.data();
  const auto edges_counted = [&edge_counts] {
    int64_t edges = 0;
    for (WorkerEdgeCount& count : edge_counts) {
      edges += count.edges;
      count.edges = 0;
    }
    return edges;
  };

  // ---- Run each unit ----------------------------------------------------------------------------
  for (size_t unit_index = 0; unit_index < plan.units.size(); ++unit_index) {
    // A fused unit is the smallest schedulable quantum: poll the ambient
    // request deadline here so an expired request aborts before claiming the
    // SIMT pool for another kernel. No-deadline runs pay one TLS load.
    CheckExecutionDeadline("seastar unit");
    const FusedUnit& fused = plan.units[unit_index];
    // One span per fused unit, named by its label: the finest grain of both
    // per-kernel attribution and tail-latency attribution ("which fused
    // kernel ate the budget").
    trace::AmbientSpan unit_span(program->unit_labels[unit_index], "unit");
    AddKernelLaunches(1);

    CompiledUnit unit = program->units[unit_index];  // Copy the template...
    PatchUnit(&unit, node_base, num_vertices);       // ...and bind this run's pointers.

    const Csr& csr =
        unit.orientation == GraphType::kDst ? graph.in_csr() : graph.out_csr();

    // ---- Launch -------------------------------------------------------------------------------
    const int64_t typed_stride = num_vertices;

    // Per-worker register scratch, one cacheline-aligned row per worker so
    // concurrent FAT groups never false-share. A pooled Tensor rather than
    // fresh vectors: in steady state (same GIR, same pool) the allocation is
    // a pool hit, so the whole epoch runs with zero fresh mallocs.
    const int64_t scratch_stride =
        (static_cast<int64_t>(std::max(unit.scratch_floats, 1)) + 15) & ~int64_t{15};
    Tensor scratch_tensor = Tensor::Zeros({num_workers, scratch_stride});
    float* scratch_base = scratch_tensor.data();

    // Cache-blocked tiled launch (ISSUE 8): fast-path units whose per-vertex
    // work is only the edge loop plus the aggregation store run segment-by-
    // segment (L2-sized destination ranges) and feature-tile-by-tile
    // (L1-sized column ranges), re-walking each segment's edges once per
    // tile. Same kernels, same per-column operation order as the untiled
    // loop below — only the iteration space is reshaped.
    const bool tiled = unit.tilable && TilingEnabled();
    if (tiled) {
      const std::shared_ptr<const TilePlan> tile_plan =
          program->TilingFor(unit_index, csr, num_workers);
      const int64_t num_segments = tile_plan->num_segments();
      const AggInstr& agg = unit.aggs[0];
      const int32_t w = agg.width;
      const int32_t tile_width = tile_plan->tile_width;
      const bool is_mean = agg.kind == OpKind::kAggMean;

      SimtLaunchStats launch_stats;
      SimtLaunchParams launch;
      launch.num_blocks = num_segments;
      launch.schedule = options_.schedule;
      launch.chunk_size = options_.dynamic_chunk;
      launch.stats = traced ? &launch_stats : nullptr;

      LaunchBlocks(launch, [&](int64_t segment, int worker) {
        float* acc = scratch_base + worker * scratch_stride;
        const int64_t p_begin = tile_plan->bounds[static_cast<size_t>(segment)];
        const int64_t p_end = tile_plan->bounds[static_cast<size_t>(segment) + 1];
        for (int32_t c0 = 0; c0 < w; c0 += tile_width) {
          const int32_t n = std::min(tile_width, w - c0);
          for (int64_t k = p_begin; k < p_end; ++k) {
            const int64_t key = csr.position_vertex[static_cast<size_t>(k)];
            const int64_t begin = csr.offsets[static_cast<size_t>(k)];
            const int64_t end = csr.offsets[static_cast<size_t>(k) + 1];
            if (edge_slots != nullptr && c0 == 0) {
              edge_slots[worker].edges += end - begin;  // Unique edges, not re-walks.
            }
            for (int32_t j = 0; j < n; ++j) {
              acc[j] = 0.0f;
            }
            RunFastEdgeLoop(unit, csr, acc, acc, key, begin, end, c0, n);
            if (is_mean) {
              const float inv = end > begin ? 1.0f / static_cast<float>(end - begin) : 0.0f;
              simd::ScaleRow(acc, inv, n);
            }
            std::memcpy(agg.mat_base + key * w + c0, acc,
                        static_cast<size_t>(n) * sizeof(float));
          }
        }
      });

      const TilingCounters& counters = Tiling();
      const int64_t tile_passes = num_segments * tile_plan->num_tiles;
      counters.segments->Add(num_segments);
      counters.tile_passes->Add(tile_passes);
      counters.edge_visits->Add(csr.num_edges * tile_plan->num_tiles);
      counters.tiled_units->Add(1);
      counters.simd_dispatch->Add(1);

      const int64_t edges = edges_counted();
      if (trace::Span* span = unit_span.span()) {
        span->Set(Arg::kEdges, edges);
        span->Set(Arg::kFatGroups, num_vertices);
        span->Set(Arg::kFatGroupSize, 1);  // Vertex-sequential within a segment.
        span->Set(Arg::kNumBlocks, num_segments);
        span->Set(Arg::kDispatches, launch_stats.dispatches);
        span->Set(Arg::kKernelLaunches, 1);
        span->Set(Arg::kTileSegments, num_segments);
        span->Set(Arg::kTilePasses, tile_passes);
        span->Set(Arg::kTileWidth, tile_width);
        span->Set(Arg::kBytesMaterialized, num_vertices * w * static_cast<int64_t>(sizeof(float)));
        span->schedule = BlockScheduleName(options_.schedule);
        span->simd_isa = simd::SimdIsaName();
      }
      continue;
    }
    Tiling().untiled_units->Add(1);

    const FatGeometry geometry =
        program->GeometryFor(unit_index, num_vertices, options_.block_size);
    SimtLaunchStats launch_stats;
    SimtLaunchParams launch;
    launch.num_blocks = geometry.num_blocks;
    launch.schedule = options_.schedule;
    launch.chunk_size = options_.dynamic_chunk;
    launch.stats = traced ? &launch_stats : nullptr;

    LaunchBlocks(launch, [&](int64_t block_id, int worker) {
      float* scratch = scratch_base + worker * scratch_stride;
      const int64_t first = geometry.FirstItemOfBlock(block_id);
      const int64_t last = std::min<int64_t>(first + geometry.groups_per_block, num_vertices);
      for (int64_t k = first; k < last; ++k) {
        const int64_t key = unit.needs_edge_loop || !csr.position_vertex.empty()
                                ? csr.position_vertex[static_cast<size_t>(k)]
                                : k;
        // 1. Loop-invariant key-side ops.
        for (const Instr& instr : unit.invariant) {
          const float* a = Resolve(instr.a, scratch, key, /*nbr=*/0, /*eid=*/0, 0, typed_stride);
          const float* b = instr.binary
                               ? Resolve(instr.b, scratch, key, 0, 0, 0, typed_stride)
                               : nullptr;
          EvalInstr(instr, scratch, a, b);
          if (instr.mat == MatKind::kKeyRow) {
            std::memcpy(instr.mat_base + key * instr.width, scratch + instr.out_reg,
                        static_cast<size_t>(instr.width) * sizeof(float));
          }
        }
        // 2. Aggregation initialization (Alg. 1 line 7).
        for (const AggInstr& agg : unit.aggs) {
          float* acc = scratch + agg.acc_reg;
          const float init =
              (agg.kind == OpKind::kAggMax || agg.kind == OpKind::kAggTypeSumThenMax) ? -FLT_MAX
                                                                                      : 0.0f;
          for (int32_t j = 0; j < agg.width; ++j) {
            acc[j] = init;
          }
          if (agg.inner_reg > 0 || agg.kind == OpKind::kAggTypeSumThenMax ||
              agg.kind == OpKind::kAggTypedToSrc) {
            float* inner = scratch + agg.inner_reg;
            for (int32_t j = 0; j < agg.width; ++j) {
              inner[j] = 0.0f;
            }
          }
        }

        const int64_t begin = unit.needs_edge_loop ? csr.offsets[static_cast<size_t>(k)] : 0;
        const int64_t end = unit.needs_edge_loop ? csr.offsets[static_cast<size_t>(k) + 1] : 0;
        const int64_t degree = end - begin;
        int32_t prev_type = -1;
        if (edge_slots != nullptr) {
          edge_slots[worker].edges += degree;
        }

        // 3. Edge-sequential loop (Alg. 1 lines 8-14) — fused fast path when
        // the unit's shape allows, interpreted otherwise.
        if (unit.fast_path != FastPath::kNone) {
          RunFastEdgeLoop(unit, csr, scratch, scratch + unit.aggs[0].acc_reg, key, begin, end,
                          /*c0=*/0, unit.aggs[0].width);
        } else
        for (int64_t slot = begin; slot < end; ++slot) {
          const int64_t nbr = csr.nbr_ids[static_cast<size_t>(slot)];
          const int64_t eid = csr.edge_ids[static_cast<size_t>(slot)];
          const int32_t etype =
              csr.edge_types.empty() ? 0 : csr.edge_types[static_cast<size_t>(slot)];

          // Edge-type boundary: flush two-level aggregations (§6.3.5).
          if (unit.has_typed_agg && etype != prev_type && prev_type >= 0) {
            for (const AggInstr& agg : unit.aggs) {
              float* inner = scratch + agg.inner_reg;
              float* acc = scratch + agg.acc_reg;
              if (agg.kind == OpKind::kAggTypeSumThenMax) {
                for (int32_t j = 0; j < agg.width; ++j) {
                  acc[j] = std::max(acc[j], inner[j]);
                  inner[j] = 0.0f;
                }
              } else if (agg.kind == OpKind::kAggTypedToSrc) {
                float* row = agg.mat_base +
                             (static_cast<int64_t>(prev_type) * agg.typed_rows + key) * agg.width;
                std::memcpy(row, inner, static_cast<size_t>(agg.width) * sizeof(float));
                for (int32_t j = 0; j < agg.width; ++j) {
                  inner[j] = 0.0f;
                }
              }
            }
          }
          prev_type = etype;

          for (const Instr& instr : unit.edge) {
            const float* a = Resolve(instr.a, scratch, key, nbr, eid, etype, typed_stride);
            const float* b =
                instr.binary ? Resolve(instr.b, scratch, key, nbr, eid, etype, typed_stride)
                             : nullptr;
            EvalInstr(instr, scratch, a, b);
            if (instr.mat == MatKind::kEdgeRow) {
              std::memcpy(instr.mat_base + eid * instr.width, scratch + instr.out_reg,
                          static_cast<size_t>(instr.width) * sizeof(float));
            } else if (instr.mat == MatKind::kNbrRow) {
              AtomicStoreRow(instr.mat_base + nbr * instr.width, scratch + instr.out_reg,
                             instr.width);
            }
          }
          for (const AggInstr& agg : unit.aggs) {
            const float* value =
                Resolve(agg.input, scratch, key, nbr, eid, etype, typed_stride);
            const int32_t wv = agg.input.width;
            switch (agg.kind) {
              case OpKind::kAggSum:
              case OpKind::kAggMean: {
                float* acc = scratch + agg.acc_reg;
                for (int32_t j = 0; j < agg.width; ++j) {
                  acc[j] += value[wv == 1 ? 0 : j];
                }
                break;
              }
              case OpKind::kAggMax: {
                float* acc = scratch + agg.acc_reg;
                for (int32_t j = 0; j < agg.width; ++j) {
                  acc[j] = std::max(acc[j], value[wv == 1 ? 0 : j]);
                }
                break;
              }
              case OpKind::kAggTypeSumThenMax:
              case OpKind::kAggTypedToSrc: {
                float* inner = scratch + agg.inner_reg;
                for (int32_t j = 0; j < agg.width; ++j) {
                  inner[j] += value[wv == 1 ? 0 : j];
                }
                break;
              }
              default:
                break;
            }
          }
        }

        // 4. Aggregation output (Alg. 1 lines 15-16).
        for (const AggInstr& agg : unit.aggs) {
          float* acc = scratch + agg.acc_reg;
          if (unit.has_typed_agg && prev_type >= 0) {
            float* inner = scratch + agg.inner_reg;
            if (agg.kind == OpKind::kAggTypeSumThenMax) {
              for (int32_t j = 0; j < agg.width; ++j) {
                acc[j] = std::max(acc[j], inner[j]);
              }
            } else if (agg.kind == OpKind::kAggTypedToSrc) {
              float* row = agg.mat_base +
                           (static_cast<int64_t>(prev_type) * agg.typed_rows + key) * agg.width;
              std::memcpy(row, inner, static_cast<size_t>(agg.width) * sizeof(float));
            }
          }
          if (agg.kind == OpKind::kAggMean) {
            const float inv = degree > 0 ? 1.0f / static_cast<float>(degree) : 0.0f;
            // Same dispatched kernel as the tiled finalize — a lone multiply
            // per column, so partitioning cannot perturb the scaling either.
            simd::ScaleRow(acc, inv, agg.width);
          }
          if ((agg.kind == OpKind::kAggMax || agg.kind == OpKind::kAggTypeSumThenMax) &&
              degree == 0) {
            for (int32_t j = 0; j < agg.width; ++j) {
              acc[j] = 0.0f;
            }
          }
          if (agg.materialized && agg.kind != OpKind::kAggTypedToSrc) {
            std::memcpy(agg.mat_base + key * agg.width, acc,
                        static_cast<size_t>(agg.width) * sizeof(float));
          }
        }
        // 5. Post-aggregation vertex ops (Alg. 1 line 17).
        for (const Instr& instr : unit.post) {
          const float* a = Resolve(instr.a, scratch, key, 0, 0, 0, typed_stride);
          const float* b =
              instr.binary ? Resolve(instr.b, scratch, key, 0, 0, 0, typed_stride) : nullptr;
          EvalInstr(instr, scratch, a, b);
          if (instr.mat == MatKind::kKeyRow) {
            std::memcpy(instr.mat_base + key * instr.width, scratch + instr.out_reg,
                        static_cast<size_t>(instr.width) * sizeof(float));
          }
        }
      }
    });

    const int64_t edges = edges_counted();
    if (trace::Span* span = unit_span.span()) {
      span->Set(Arg::kEdges, edges);
      span->Set(Arg::kFatGroups, num_vertices);
      span->Set(Arg::kFatGroupSize, geometry.group_size);
      span->Set(Arg::kNumBlocks, geometry.num_blocks);
      span->Set(Arg::kBlockSize, geometry.block_size);
      span->Set(Arg::kDispatches, launch_stats.dispatches);
      span->Set(Arg::kKernelLaunches, 1);
      span->schedule = BlockScheduleName(options_.schedule);
      int64_t bytes_materialized = 0;
      for (int32_t id : fused.nodes) {
        if (!plan.materialized[static_cast<size_t>(id)]) {
          continue;
        }
        const Node& node = gir.node(id);
        const int64_t rows = node.kind == OpKind::kAggTypedToSrc
                                 ? static_cast<int64_t>(num_types) * num_vertices
                                 : (node.type == GraphType::kEdge ? num_edges : num_vertices);
        bytes_materialized += rows * node.width * static_cast<int64_t>(sizeof(float));
      }
      span->Set(Arg::kBytesMaterialized, bytes_materialized);
    }
  }

  if (trace::Span* span = run_span.span()) {
    span->Set(Arg::kKernelLaunches, static_cast<int64_t>(plan.units.size()));
    span->Set(Arg::kAllocDeltaBytes, static_cast<int64_t>(allocator.live_bytes()) -
                                         static_cast<int64_t>(run_live_before));
    span->Set(Arg::kPeakDeltaBytes, static_cast<int64_t>(allocator.peak_bytes()) -
                                        static_cast<int64_t>(run_peak_before));
    span->Set(Arg::kPlanCacheHits, plan_hit ? 1 : 0);
    span->Set(Arg::kPlanCacheMisses, plan_hit ? 0 : 1);
    span->Set(Arg::kPoolHits, static_cast<int64_t>(allocator.pool_hits() - run_pool_hits_before));
    span->Set(Arg::kPoolMisses,
              static_cast<int64_t>(allocator.fresh_mallocs() - run_fresh_mallocs_before));
  }

  RunResult result;
  result.saved = saved;
  for (size_t i = 0; i < gir.outputs().size(); ++i) {
    const int32_t id = gir.outputs()[i];
    auto it = saved->find(id);
    if (it != saved->end()) {
      result.outputs[gir.output_names()[i]] = it->second;
      continue;
    }
    // An output may be a leaf itself, e.g. a backward GIR whose input
    // gradient is exactly the incoming output gradient (identity adjoint).
    auto leaf_it = leaf_value.find(id);
    SEASTAR_CHECK(leaf_it != leaf_value.end()) << "output %" << id << " was not materialized";
    result.outputs[gir.output_names()[i]] = leaf_it->second;
  }
  return result;
}

}  // namespace seastar
