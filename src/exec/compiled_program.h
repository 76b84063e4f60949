// The per-GIR compile artifact of the Seastar executor, split out of the
// executor so it can be cached across runs (see plan_cache.h).
//
// Compiling a GIR — fusion planning, register allocation, lowering every
// fused unit to a small register program — depends only on the GIR's content
// and the fusion options, never on the graph or the feature bindings. The
// CompiledProgram therefore stores *templates*: instructions whose operand
// base pointers are null and instead carry the GIR node id they should be
// bound to (`bind_node` / `mat_node`). Each run builds a per-run table of
// node id -> base pointer (leaf features, degree tensors, freshly allocated
// materialization tensors), copies the small instruction vectors, and patches
// the pointers in (PatchUnit). The hot kernel loop then runs on fully
// resolved pointers, exactly as it did when compilation happened per run.
//
// Every fused unit compiles to one form (LowerUnit in compiled_program.cc),
// FeatGraph's split of a vertex program: an SDDMM-shaped edge prologue (the
// unit's per-edge ops, evaluated over L1-sized chunks of CSR slots with one
// op dispatch per chunk) feeding an SpMM-shaped reduction per aggregation
// (one SIMD gather-reduce call per key, see Reduce), run on the tile-plan
// segment launch. The plain copy-sum and mul-sum aggregations are its
// empty-prologue and folded-Mul cases; max folds with its own reducer, and
// the typed two-level aggregations fold each (key, edge type) run of slots
// into an inner accumulator that is flushed at the run's end.
#ifndef SRC_EXEC_COMPILED_PROGRAM_H_
#define SRC_EXEC_COMPILED_PROGRAM_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/exec/tiling.h"
#include "src/gir/fusion.h"
#include "src/gir/ir.h"
#include "src/graph/csr.h"

namespace seastar {

// Where an operand's bytes come from at kernel time.
enum class Src : uint8_t {
  kReg,       // A register of the current key's register row.
  kKeyRow,    // base + key_vertex * width (key-side vertex tensor).
  kNbrRow,    // base + nbr_vertex * width.
  kEdgeRow,   // base + edge_id * width.
  kTypedRow,  // base + (edge_type * num_vertices + src_vertex) * width.
  kScalar,    // Immediate.
  kBatch,     // Lowered units only: a region of the edge batch (see CompiledUnit).
};

struct Operand {
  Src src = Src::kScalar;
  int32_t reg = 0;
  const float* base = nullptr;  // Null in the cached template; patched per run.
  int32_t bind_node = -1;       // GIR node whose per-run base fills `base`.
  int32_t width = 1;
  float scalar = 0.0f;
};

// Where a computed value is written (if materialized).
enum class MatKind : uint8_t { kNone, kKeyRow, kNbrRow, kEdgeRow };

struct Instr {
  OpKind kind = OpKind::kIdentity;
  int32_t width = 1;
  float attr = 0.0f;
  Operand a;
  Operand b;
  bool binary = false;
  int32_t out_reg = 0;
  MatKind mat = MatKind::kNone;
  float* mat_base = nullptr;  // Null in the template; patched per run.
  int32_t mat_node = -1;
};

// How an aggregation folds each edge's value into its accumulator. Each form
// is one runtime-dispatched SIMD gather-reduce kernel (src/tensor/simd.h),
// called once per key, chunk and column tile over the key's slots (per
// (key, edge type) run of them in a typed aggregation):
//   kAdd    — acc[j] += x[j] (AddGather);
//   kAxpy   — acc[j] += x[j] * y[0] (AxpyGather): a Mul feeding only this
//             sum, folded into the reduction, with its width-1 operand as y;
//             or, for a grouped-broadcast Mul whose narrow operand y has
//             width g > 1, acc[j] += x[j] * y[j / k] with k = width / g
//             (AxpyGroupedGather);
//   kMulAdd — acc[j] += x[j] * y[j] (MulAddGather): the same for a Mul of
//             two full-width rows;
//   kMax    — acc[j] = std::max(acc[j], x[j]) (MaxGather).
enum class Reduce : uint8_t { kAdd, kAxpy, kMulAdd, kMax };

struct AggInstr {
  OpKind kind = OpKind::kAggSum;
  int32_t width = 1;
  Reduce reduce = Reduce::kAdd;
  Operand x;              // The aggregated value (the folded Mul's row operand).
  Operand y;              // kAxpy: the width-1 or grouped scale; kMulAdd: the other row.
  int32_t acc_reg = 0;    // Outer accumulator.
  // Inner accumulator of the two-level aggregations (kAggTypeSumThenMax,
  // kAggTypedToSrc): each (key, edge type) run of slots sums into it, and
  // the run's end maxes it into the outer one or writes its typed row.
  int32_t inner_reg = 0;
  // Materialization (aggregation results are key-side rows, except
  // kAggTypedToSrc which writes a [num_types, N, width] stack).
  float* mat_base = nullptr;  // Null in the template; patched per run.
  int32_t mat_node = -1;
  bool materialized = false;
};

// The aggregations that sum each (key, edge type) run of slots into an inner
// accumulator (paper §6.3.5).
inline bool IsTwoLevel(OpKind kind) {
  return kind == OpKind::kAggTypeSumThenMax || kind == OpKind::kAggTypedToSrc;
}

// A compiled unit runs per tile-plan segment: key positions are taken in
// batches of at most `batch_keys`, each with its own `key_stride`-float
// register row (invariant ops, accumulators and post ops run per key against
// it, Algorithm 1 lines 5-7 and 15-17); the batch's CSR slots — contiguous —
// run the edge prologue in chunks of at most `batch_edges`, one op dispatch
// per instruction per chunk; then each key folds its slots of the chunk into
// each aggregation's accumulator with that aggregation's `reduce` kernel, in
// slot order.
struct CompiledUnit {
  GraphType orientation = GraphType::kDst;
  bool needs_edge_loop = false;
  std::vector<Instr> invariant;  // Key-side pre ops (loop hoisted).
  // The edge prologue: Identity copies are folded into their readers, a Mul
  // feeding a sum is folded into that aggregation's `reduce`, and every
  // remaining op writes a region of the per-worker edge batch — `out_reg`
  // and the `reg` of each Src::kBatch operand are float offsets into that
  // batch, row i at offset + i * width. Materialized results are scattered
  // by edge id (edge rows) or neighbour id (neighbour rows).
  std::vector<Instr> edge;
  std::vector<AggInstr> aggs;
  std::vector<Instr> post;       // Post-aggregation key-side ops.
  int32_t max_width = 1;

  bool needs_slot_keys = false;     // Some prologue/reduce operand is key-side.
  bool needs_typed_slots = false;   // Some prologue/reduce operand is Src::kTypedRow.
  int32_t batch_edges = 0;
  int32_t batch_keys = 0;
  int32_t key_stride = 0;           // Floats per key register row (64B-aligned).
  int32_t batch_floats = 0;         // Floats per edge batch (all prologue regions).
};

// Everything about a GIR that survives from one run to the next. Immutable
// after CompileProgram (the tile-plan cache is a mutable memo); shared across
// threads via shared_ptr<const CompiledProgram>.
class CompiledProgram {
 public:
  ExecutionPlan plan;
  std::vector<CompiledUnit> units;       // Templates (null base pointers).
  // Span names, interned ("unit3:Mul+AggSum"): recorded traces keep them
  // whole after this program is evicted.
  std::vector<const char*> unit_labels;
  // Per unit: the materialized values no later unit reads and the program
  // does not output, released as soon as that unit has run (each
  // materialized value is allocated just before its producing unit runs).
  std::vector<std::vector<int32_t>> release_after;
  // Host-side values of P-typed nodes (constants and arithmetic on
  // constants), indexed by node id. P values cannot depend on features or the
  // graph, so they are fixed at compile time.
  std::vector<float> scalar_value;

  // Segment plan for one unit over `csr`, memoized per
  // (unit, num_vertices, num_edges, TilingEnabled()), so a graph change
  // misses naturally with no invalidation hook. The key deliberately does not
  // fingerprint the degree distribution: two distinct graphs with identical
  // (V, E) would share a plan, which can only cost locality, never
  // correctness (any position partition is exact — see tiling.h). Plans are
  // derived from the CSR's offset array (the cached degree data) on first
  // use; `num_workers` shapes the parallel grain of the first computation
  // and is not part of the key (pool size is fixed per process). With
  // tiling disabled the plan is SingleSegmentPlan.
  std::shared_ptr<const TilePlan> TilingFor(size_t unit_index, const Csr& csr,
                                            int num_workers) const;

 private:
  struct TilingKey {
    size_t unit;
    int64_t vertices;
    int64_t edges;
    bool tiled;  // TilingEnabled() when planned.
    bool operator<(const TilingKey& o) const {
      if (unit != o.unit) return unit < o.unit;
      if (vertices != o.vertices) return vertices < o.vertices;
      if (edges != o.edges) return edges < o.edges;
      return tiled < o.tiled;
    }
  };
  mutable std::mutex tiling_mutex_;
  mutable std::map<TilingKey, std::shared_ptr<const TilePlan>> tiling_cache_;
};

// Plans (fusion + materialization) and register-compiles `gir`. Returned via
// shared_ptr because CompiledProgram owns a mutex (the tile-plan memo) and
// is therefore immovable.
std::shared_ptr<CompiledProgram> CompileProgram(const GirGraph& gir, const FusionOptions& options);

// Fills in the null base pointers of a per-run copy of a template unit.
// `node_base[id]` is the base pointer of node id's backing tensor this run
// (leaf binding, degree tensor, or materialization buffer); entries for
// register-resident nodes stay null and are never consulted.
void PatchUnit(CompiledUnit* unit, const std::vector<float*>& node_base);

}  // namespace seastar

#endif  // SRC_EXEC_COMPILED_PROGRAM_H_
