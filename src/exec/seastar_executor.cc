#include "src/exec/seastar_executor.h"

#include <algorithm>
#include <atomic>
#include <cfloat>
#include <cstdint>
#include <cstring>

#include "src/common/deadline.h"
#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/common/tracing.h"
#include "src/exec/compiled_program.h"
#include "src/exec/plan_cache.h"
#include "src/exec/pointwise.h"
#include "src/exec/tiling.h"
#include "src/parallel/simt.h"
#include "src/parallel/thread_pool.h"
#include "src/tensor/allocator.h"
#include "src/tensor/simd.h"

namespace seastar {

using trace::Arg;
namespace {

// Always-on per-tile observability (cached handles; bumped once per unit
// launch on the orchestration path, never inside the edge loops).
struct TilingCounters {
  metrics::Counter* segments;     // seastar_tiling_segments_total
  metrics::Counter* tile_passes;  // seastar_tiling_tile_passes_total
  metrics::Counter* edge_visits;  // seastar_tiling_edge_visits_total
  metrics::Counter* tiled_units;  // seastar_tiling_units_tiled_total
};

const TilingCounters& Tiling() {
  static const TilingCounters counters = [] {
    metrics::MetricsRegistry& registry = metrics::MetricsRegistry::Get();
    TilingCounters c;
    c.segments = registry.GetCounter("seastar_tiling_segments_total");
    c.tile_passes = registry.GetCounter("seastar_tiling_tile_passes_total");
    c.edge_visits = registry.GetCounter("seastar_tiling_edge_visits_total");
    c.tiled_units = registry.GetCounter("seastar_tiling_units_tiled_total");
    registry.GetGauge("seastar_simd_lanes")->Set(static_cast<double>(simd::SimdLanes()));
    return c;
  }();
  return counters;
}

inline void AtomicStoreRow(float* dst, const float* src, int32_t width) {
  // Benign overwrite of identical values: every slot of a neighbour stores
  // the same row, possibly from concurrent segments; relaxed atomics keep it
  // defined behaviour.
  for (int32_t j = 0; j < width; ++j) {
    std::atomic_ref<float>(dst[j]).store(src[j], std::memory_order_relaxed);
  }
}

// ---- The segment launch ------------------------------------------------------------------------
// A worker's slice of the launch scratch (layout in LoweredWorkFloats).
struct LoweredWork {
  float* regs;          // batch_keys register rows of key_stride floats.
  float* batch;         // The prologue's regions (CompiledUnit::batch_floats).
  int32_t* slot_key;    // Per chunk slot: the key vertex.
  int32_t* slot_local;  // Per chunk slot: its key's row in `regs`.
  int32_t* slot_typed;  // Per chunk slot: edge_type * num_vertices + source (typed units).
};

// Floats per chunk-slot array, 64B-aligned.
int64_t SlotFloats(const CompiledUnit& unit) {
  return (int64_t{unit.batch_edges} + 15) & ~int64_t{15};
}

int64_t LoweredWorkFloats(const CompiledUnit& unit) {
  const int64_t slot_arrays = unit.needs_typed_slots ? 3 : 2;
  return int64_t{unit.batch_keys} * unit.key_stride + unit.batch_floats +
         slot_arrays * SlotFloats(unit);
}

LoweredWork CarveLoweredWork(const CompiledUnit& unit, float* base) {
  const int64_t slots = SlotFloats(unit);
  LoweredWork work;
  work.regs = base;
  work.batch = work.regs + int64_t{unit.batch_keys} * unit.key_stride;
  work.slot_key = reinterpret_cast<int32_t*>(work.batch + unit.batch_floats);
  work.slot_local = work.slot_key + slots;
  work.slot_typed = work.slot_local + slots;
  return work;
}

// Rows of `op` over the chunk starting at CSR slot s0.
simd::Rows BindRows(const Operand& op, const Csr& csr, int64_t s0, const LoweredWork& work,
                    int32_t key_stride) {
  switch (op.src) {
    case Src::kBatch:
      return {work.batch + op.reg, nullptr, op.width};
    case Src::kReg:
      return {work.regs + op.reg, work.slot_local, key_stride};
    case Src::kKeyRow:
      return {op.base, work.slot_key, op.width};
    case Src::kNbrRow:
      return {op.base, csr.nbr_ids.data() + s0, op.width};
    case Src::kEdgeRow:
      return {op.base, csr.edge_ids.data() + s0, op.width};
    case Src::kTypedRow:
      return {op.base, work.slot_typed, op.width};
    case Src::kScalar:
      return {&op.scalar, nullptr, 0};
  }
  return {};
}

// A key-side operand: a register, the key's row or an immediate (LowerUnit
// checks that key-side ops read nothing else).
inline const float* KeyOperand(const Operand& op, const float* regs, int64_t key) {
  if (op.src == Src::kReg) {
    return regs + op.reg;
  }
  return op.src == Src::kKeyRow ? op.base + key * op.width : &op.scalar;
}

// Key-side instructions (invariant / post) on one key's register row.
inline void RunKeyInstrs(const std::vector<Instr>& instrs, float* regs, int64_t key) {
  for (const Instr& instr : instrs) {
    const float* a = KeyOperand(instr.a, regs, key);
    const float* b = instr.binary ? KeyOperand(instr.b, regs, key) : nullptr;
    PointwiseApply(instr.kind, instr.attr, regs + instr.out_reg, instr.width, a, instr.a.width,
                   b, instr.b.width);
    if (instr.mat == MatKind::kKeyRow) {
      std::memcpy(instr.mat_base + key * instr.width, regs + instr.out_reg,
                  static_cast<size_t>(instr.width) * sizeof(float));
    }
  }
}

// One prologue op over the chunk's n rows: PointwiseApplyRows picks the op,
// the operands' broadcast shape and (at widths 1 and 8) a compile-time
// row width once for the chunk, so the row loop is a few vector
// instructions per row. Kept out of line: inlined, the per-op
// switch grows RunLoweredSegment past what GCC inlines into the launch
// lambda, which reshapes the reduction loops of every unit, prologue or not.
__attribute__((noinline)) void RunPrologueOp(const Instr& instr, int64_t n, float* out,
                                             const simd::Rows& a, const simd::Rows& b) {
  const int32_t width = instr.width;
  PointwiseApplyRows(instr.kind, instr.attr, n, width, instr.a.width, instr.b.width,
                     [&](int64_t i) { return PointwiseRows{out + i * width, a(i), b(i)}; });
}

// dst row ids[i] = src row i for the chunk's n rows of `width` floats; at a
// compile-time width (WithRowWidth) each row is a constant-size move.
void ScatterRows(float* __restrict__ dst, const int32_t* ids, const float* __restrict__ src,
                 int64_t n, int32_t width) {
  WithRowWidth(width, [&](auto fixed) {
    const int32_t w = fixed() > 0 ? fixed() : width;
    for (int64_t i = 0; i < n; ++i) {
      std::memcpy(dst + int64_t{ids[i]} * w, src + i * w, static_cast<size_t>(w) * sizeof(float));
    }
  });
}

// Folds chunk rows [i0, i1) — one key's slots — into acc[0, n) = columns
// [c0, c0 + n) of the key's accumulator: one gather-reduce kernel call, which
// keeps the accumulator in registers across the rows, in slot order.
void ReduceRows(const AggInstr& agg, const simd::Rows& x, const simd::Rows& y, float* acc,
                int64_t i0, int64_t i1, int32_t c0, int32_t n) {
  switch (agg.reduce) {
    case Reduce::kAdd:
      simd::AddGather(acc, x, i0, i1, c0, n);
      return;
    case Reduce::kAxpy:
      if (agg.y.width == 1) {
        simd::AxpyGather(acc, x, y, i0, i1, c0, n);
      } else {
        simd::AxpyGroupedGather(acc, x, y, i0, i1, c0, n, agg.width / agg.y.width);
      }
      return;
    case Reduce::kMulAdd:
      simd::MulAddGather(acc, x, y, i0, i1, c0, n);
      return;
    case Reduce::kMax:
      simd::MaxGather(acc, x, i0, i1, c0, n);
      return;
  }
}

// Ends a two-level aggregation's (key, edge type) run: kAggTypeSumThenMax
// maxes the run's sum into the outer accumulator, kAggTypedToSrc writes it
// to the key's row of the type's plane. The inner accumulator restarts at 0.
void FlushTypeRun(const AggInstr& agg, float* regs, int64_t key, int32_t type,
                  int64_t num_vertices) {
  float* inner = regs + agg.inner_reg;
  if (agg.kind == OpKind::kAggTypeSumThenMax) {
    float* acc = regs + agg.acc_reg;
    for (int32_t j = 0; j < agg.width; ++j) {
      acc[j] = std::max(acc[j], inner[j]);
    }
  } else {
    std::memcpy(agg.mat_base + (int64_t{type} * num_vertices + key) * agg.width, inner,
                static_cast<size_t>(agg.width) * sizeof(float));
  }
  std::fill_n(inner, agg.width, 0.0f);
}

// Runs one tile-plan segment of a unit (see CompiledUnit). Every key's
// result depends only on its own slots, taken in slot order, so the segment
// and chunk boundaries — and hence the plan, tiled or SingleSegmentPlan —
// never change a bit.
void RunLoweredSegment(const CompiledUnit& unit, const Csr& csr, const TilePlan& plan,
                       int64_t segment, const LoweredWork& work, int64_t num_vertices) {
  const int32_t stride = unit.key_stride;
  const auto slot = [&](int64_t k) {
    return unit.needs_edge_loop ? csr.offsets[static_cast<size_t>(k)] : int64_t{0};
  };
  const auto key_at = [&](int64_t k) -> int64_t {
    return csr.position_vertex.empty() ? k : csr.position_vertex[static_cast<size_t>(k)];
  };
  // Edge type per slot; a graph without types has one (type 0).
  const int32_t* types = csr.edge_types.empty() ? nullptr : csr.edge_types.data();
  const auto type_at = [types](int64_t s) { return types != nullptr ? types[s] : 0; };
  const int64_t p_end = plan.bounds[static_cast<size_t>(segment) + 1];
  for (int64_t k0 = plan.bounds[static_cast<size_t>(segment)]; k0 < p_end;) {
    // Key batch [k0, k1): up to batch_keys keys whose slots fit one chunk. A
    // key whose slots alone overflow a chunk is a batch of its own and runs
    // over several chunks.
    const int64_t s_begin = slot(k0);
    int64_t k1 = k0 + 1;
    while (k1 < p_end && k1 - k0 < unit.batch_keys &&
           slot(k1 + 1) - s_begin <= unit.batch_edges) {
      ++k1;
    }
    const int64_t s_end = slot(k1);

    // Algorithm 1 lines 5-7 per key: invariant ops, accumulator init.
    for (int64_t k = k0; k < k1; ++k) {
      float* regs = work.regs + (k - k0) * stride;
      RunKeyInstrs(unit.invariant, regs, key_at(k));
      for (const AggInstr& agg : unit.aggs) {
        const bool max = agg.kind == OpKind::kAggMax || agg.kind == OpKind::kAggTypeSumThenMax;
        std::fill_n(regs + agg.acc_reg, agg.width, max ? -FLT_MAX : 0.0f);
        if (IsTwoLevel(agg.kind)) {
          std::fill_n(regs + agg.inner_reg, agg.width, 0.0f);
        }
      }
    }

    // Lines 8-14 chunk by chunk: the edge prologue, one dispatch per op,
    // then each key folds its slots of the chunk into its accumulators.
    for (int64_t s0 = s_begin; s0 < s_end; s0 += unit.batch_edges) {
      const int64_t s1 = std::min<int64_t>(s0 + unit.batch_edges, s_end);
      const int64_t n = s1 - s0;
      if (unit.needs_slot_keys) {
        for (int64_t k = k0; k < k1; ++k) {
          const int64_t key = key_at(k);
          for (int64_t s = std::max(slot(k), s0); s < std::min(slot(k + 1), s1); ++s) {
            work.slot_key[s - s0] = static_cast<int32_t>(key);
            work.slot_local[s - s0] = static_cast<int32_t>(k - k0);
          }
        }
      }
      if (unit.needs_typed_slots) {  // Fits int32: checked per run.
        // A typed row belongs to the edge's source: the neighbour in a
        // destination-keyed unit, the key itself in a source-keyed one.
        const bool src_is_nbr = unit.orientation == GraphType::kDst;
        for (int64_t k = k0; k < k1; ++k) {
          const int64_t key = key_at(k);
          for (int64_t s = std::max(slot(k), s0); s < std::min(slot(k + 1), s1); ++s) {
            const int64_t src = src_is_nbr ? csr.nbr_ids[static_cast<size_t>(s)] : key;
            work.slot_typed[s - s0] = static_cast<int32_t>(type_at(s) * num_vertices + src);
          }
        }
      }
      for (const Instr& instr : unit.edge) {
        float* out = work.batch + instr.out_reg;
        const int32_t width = instr.width;
        const simd::Rows a = BindRows(instr.a, csr, s0, work, stride);
        const simd::Rows b = instr.binary ? BindRows(instr.b, csr, s0, work, stride) : a;
        RunPrologueOp(instr, n, out, a, b);
        if (instr.mat == MatKind::kEdgeRow) {  // Scatter the chunk by edge id.
          ScatterRows(instr.mat_base, csr.edge_ids.data() + s0, out, n, width);
        } else if (instr.mat == MatKind::kNbrRow) {  // ...or by neighbour id.
          const int32_t* nbrs = csr.nbr_ids.data() + s0;
          for (int64_t i = 0; i < n; ++i) {
            AtomicStoreRow(instr.mat_base + int64_t{nbrs[i]} * width, out + i * width, width);
          }
        }
      }
      for (const AggInstr& agg : unit.aggs) {
        const int32_t w = agg.width;
        const simd::Rows x = BindRows(agg.x, csr, s0, work, stride);
        const simd::Rows y = BindRows(agg.y, csr, s0, work, stride);
        if (!IsTwoLevel(agg.kind)) {
          for (int32_t c0 = 0; c0 < w; c0 += plan.tile_width) {
            const int32_t cols = std::min(plan.tile_width, w - c0);
            for (int64_t k = k0; k < k1; ++k) {
              const int64_t i0 = std::max(slot(k), s0) - s0;
              const int64_t i1 = std::min(slot(k + 1), s1) - s0;
              float* acc = work.regs + (k - k0) * stride + agg.acc_reg + c0;
              ReduceRows(agg, x, y, acc, i0, i1, c0, cols);
            }
          }
          continue;
        }
        // Two-level: the key's slots are sorted by edge type, so each
        // (key, type) run is contiguous. Sum each run into the inner
        // accumulator; a run ends at the key's last slot or where the next
        // slot — in this chunk or the next — has another type.
        for (int64_t k = k0; k < k1; ++k) {
          float* regs = work.regs + (k - k0) * stride;
          const int64_t key_end = slot(k + 1);
          const int64_t i1 = std::min(key_end, s1) - s0;
          for (int64_t r0 = std::max(slot(k), s0) - s0; r0 < i1;) {
            const int32_t type = type_at(s0 + r0);
            int64_t r1 = r0 + 1;
            while (r1 < i1 && type_at(s0 + r1) == type) {
              ++r1;
            }
            for (int32_t c0 = 0; c0 < w; c0 += plan.tile_width) {
              ReduceRows(agg, x, y, regs + agg.inner_reg + c0, r0, r1, c0,
                         std::min(plan.tile_width, w - c0));
            }
            if (s0 + r1 == key_end || type_at(s0 + r1) != type) {
              FlushTypeRun(agg, regs, key_at(k), type, num_vertices);
            }
            r0 = r1;
          }
        }
      }
    }

    // Lines 15-17 per key: mean scaling, a slot-less max's 0, the
    // aggregation stores, post ops.
    for (int64_t k = k0; k < k1; ++k) {
      float* regs = work.regs + (k - k0) * stride;
      const int64_t key = key_at(k);
      const int64_t degree = slot(k + 1) - slot(k);
      for (const AggInstr& agg : unit.aggs) {
        const int32_t w = agg.width;
        float* acc = regs + agg.acc_reg;
        if (agg.kind == OpKind::kAggMean) {
          simd::ScaleRow(acc, degree > 0 ? 1.0f / static_cast<float>(degree) : 0.0f, w);
        } else if (degree == 0 && (agg.kind == OpKind::kAggMax ||
                                   agg.kind == OpKind::kAggTypeSumThenMax)) {
          std::fill_n(acc, w, 0.0f);
        }
        if (agg.materialized && agg.kind != OpKind::kAggTypedToSrc) {
          std::memcpy(agg.mat_base + key * w, acc, static_cast<size_t>(w) * sizeof(float));
        }
      }
      RunKeyInstrs(unit.post, regs, key);
    }
    k0 = k1;
  }
}

}  // namespace

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
  std::vector<bool> retained(static_cast<size_t>(gir.num_nodes()), false);
  if (ctx.retain != nullptr) {
    for (int32_t id : *ctx.retain) {
      if (id >= 0 && id < gir.num_nodes()) {
        retained[static_cast<size_t>(id)] = true;
      }
    }
  }
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

  // Per-run base-pointer table, indexed by node id; PatchUnit splices these
  // into copies of the compiled templates. Materialized tensors join it as
  // their producing unit is about to run.
  std::vector<float*> node_base(static_cast<size_t>(gir.num_nodes()), nullptr);
  for (auto& [id, tensor] : leaf_value) {
    node_base[static_cast<size_t>(id)] = tensor.data();
  }

  const int num_workers = ThreadPool::Current().num_threads() + 1;

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

    // This unit's materialized values (served from the allocator's pool in
    // steady state — same shapes every epoch).
    for (int32_t id : fused.nodes) {
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
      node_base[static_cast<size_t>(id)] = tensor.data();
      (*saved)[id] = std::move(tensor);
    }

    CompiledUnit unit = program->units[unit_index];  // Copy the template...
    PatchUnit(&unit, node_base);                     // ...and bind this run's pointers.

    const Csr& csr =
        unit.orientation == GraphType::kDst ? graph.in_csr() : graph.out_csr();

    // ---- Launch -------------------------------------------------------------------------------
    // Bytes this unit writes to its materialized tensors (span arg).
    const auto bytes_materialized = [&] {
      int64_t bytes = 0;
      for (int32_t id : fused.nodes) {
        if (!plan.materialized[static_cast<size_t>(id)]) {
          continue;
        }
        const Node& node = gir.node(id);
        const int64_t rows = node.kind == OpKind::kAggTypedToSrc
                                 ? static_cast<int64_t>(num_types) * num_vertices
                                 : (node.type == GraphType::kEdge ? num_edges : num_vertices);
        bytes += rows * node.width * static_cast<int64_t>(sizeof(float));
      }
      return bytes;
    };
    if (unit.needs_typed_slots) {
      SEASTAR_CHECK_LE(int64_t{num_types} * num_vertices, int64_t{INT32_MAX})
          << "typed rows (" << num_types << " types x " << num_vertices
          << " vertices) overflow the int32 slot index";
    }

    // One block per tile-plan segment (L2-sized destination ranges; a
    // single segment when tiling is off), the edge prologue in L1-sized
    // chunks and the reductions on the SIMD gather kernels. The per-worker
    // key rows and edge batch are one pooled tensor, so steady state
    // allocates nothing fresh.
    const std::shared_ptr<const TilePlan> tile_plan =
        program->TilingFor(unit_index, csr, num_workers);
    const int64_t num_segments = tile_plan->num_segments();
    const int64_t work_stride = LoweredWorkFloats(unit);
    Tensor work_tensor({num_workers, work_stride});  // Every read is written first.
    float* work_base = work_tensor.data();

    SimtLaunchStats launch_stats;
    SimtLaunchParams launch;
    launch.num_blocks = num_segments;
    launch.stats = traced ? &launch_stats : nullptr;
    LaunchBlocks(launch, [&](int64_t segment, int worker) {
      const LoweredWork work = CarveLoweredWork(unit, work_base + worker * work_stride);
      RunLoweredSegment(unit, csr, *tile_plan, segment, work, num_vertices);
    });

    const TilingCounters& counters = Tiling();
    const int64_t tile_passes = num_segments * tile_plan->num_tiles;
    counters.segments->Add(num_segments);
    counters.tile_passes->Add(tile_passes);
    // The segments cover every key position, so an edge-looping unit walks
    // each CSR slot once per feature tile.
    const int64_t edges = unit.needs_edge_loop ? csr.num_edges : 0;
    counters.edge_visits->Add(edges * tile_plan->num_tiles);
    counters.tiled_units->Add(1);
    // Intermediates no later unit reads go back to the pool now, so a
    // many-unit program (GAT's backward) never holds all of them at once.
    // Retained values outlive the run.
    for (int32_t id : program->release_after[unit_index]) {
      if (!retained[static_cast<size_t>(id)]) {
        saved->erase(id);
      }
    }

    if (trace::Span* span = unit_span.span()) {
      span->Set(Arg::kEdges, edges);
      span->Set(Arg::kDispatches, launch_stats.dispatches);
      span->Set(Arg::kKernelLaunches, 1);
      span->Set(Arg::kTileSegments, num_segments);
      span->Set(Arg::kTilePasses, tile_passes);
      span->Set(Arg::kTileWidth, tile_plan->tile_width);
      span->Set(Arg::kBytesMaterialized, bytes_materialized());
      span->simd_isa = simd::SimdIsaName();
    }
  }

  // One launch per fused unit.
  const auto launches = static_cast<int64_t>(plan.units.size());
  KernelLaunchesTotal().Add(launches);
  if (trace::Span* span = run_span.span()) {
    span->Set(Arg::kKernelLaunches, launches);
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
