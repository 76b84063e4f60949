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
// FAT geometry is cached here too, keyed by (unit, num_items, block_size):
// geometry depends only on those plus the unit's max feature width, so a
// graph change (different num_vertices) or option change (block_size) misses
// naturally and recomputes — no explicit invalidation hook needed.
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
#include "src/parallel/simt.h"

namespace seastar {

// Where an operand's bytes come from at kernel time.
enum class Src : uint8_t {
  kReg,       // Scratch register of the current FAT group.
  kKeyRow,    // base + key_vertex * width (key-side vertex tensor).
  kNbrRow,    // base + nbr_vertex * width.
  kEdgeRow,   // base + edge_id * width.
  kTypedRow,  // base + (edge_type * num_vertices + nbr_vertex) * width.
  kScalar,    // Immediate.
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

struct AggInstr {
  OpKind kind = OpKind::kAggSum;
  int32_t width = 1;
  Operand input;
  int32_t acc_reg = 0;    // Outer accumulator.
  int32_t inner_reg = 0;  // Inner (per-type) accumulator for typed aggs.
  // Materialization (aggregation results are key-side rows, except
  // kAggTypedToSrc which writes a [num_types, N, width] stack).
  float* mat_base = nullptr;  // Null in the template; patched per run.
  int32_t mat_node = -1;
  bool materialized = false;
  int64_t typed_rows = 0;  // = num_vertices for kAggTypedToSrc; set per run.
};

// Edge-loop specialization, classified once at compile time. The generic
// interpreter pays a dispatch cascade (operand Resolve + op switch + agg
// switch) per edge, which dominates at GNN feature widths; the two shapes
// every sum-style vertex program lowers to get fused inner loops instead:
//   kCopySum — no per-edge ops, one AggSum/AggMean pulling a row directly:
//              acc[j] += row[j]. (E.g. GCN backward, APPNP propagation.)
//   kMulSum  — one non-materialized Mul feeding one AggSum/AggMean:
//              acc[j] += a[j] * b[j] (with width-1 broadcast on either side).
//              (E.g. GCN forward, GAT's weighted aggregation.)
// Unit semantics are unchanged — only the loop body is specialized, and only
// when no typed aggregation / typed operand is involved.
enum class FastPath : uint8_t { kNone, kCopySum, kMulSum };

struct CompiledUnit {
  GraphType orientation = GraphType::kDst;
  bool needs_edge_loop = false;
  bool has_typed_agg = false;
  FastPath fast_path = FastPath::kNone;
  // True when the unit can run under the cache-blocked tiled scheme (see
  // tiling.h): a fast-path edge loop with no invariant/post instructions and
  // a single materialized sum/mean aggregation, so per-(segment, tile)
  // execution needs nothing but the agg accumulator. Classified once at
  // compile time; the executor additionally consults TilingEnabled().
  bool tilable = false;
  std::vector<Instr> invariant;  // Key-side pre ops (loop hoisted).
  std::vector<Instr> edge;       // Per-edge ops.
  std::vector<AggInstr> aggs;
  std::vector<Instr> post;       // Post-aggregation key-side ops.
  int32_t scratch_floats = 0;
  int32_t max_width = 1;
};

// Everything about a GIR that survives from one run to the next. Immutable
// after CompileProgram (the geometry cache is a mutable memo); shared across
// threads via shared_ptr<const CompiledProgram>.
class CompiledProgram {
 public:
  ExecutionPlan plan;
  std::vector<CompiledUnit> units;       // Templates (null base pointers).
  // Span names, interned ("unit3:Mul+AggSum"): recorded traces keep them
  // whole after this program is evicted.
  std::vector<const char*> unit_labels;
  // Host-side values of P-typed nodes (constants and arithmetic on
  // constants), indexed by node id. P values cannot depend on features or the
  // graph, so they are fixed at compile time.
  std::vector<float> scalar_value;

  // FAT geometry for one unit, memoized per (num_items, block_size).
  FatGeometry GeometryFor(size_t unit_index, int64_t num_items, int block_size) const;

  // Cache-blocked tile plan for one unit over `csr`, memoized per
  // (unit, num_vertices, num_edges) — the same scheme as the FAT-geometry
  // memo, so a graph change misses naturally. The key deliberately does not
  // fingerprint the degree distribution: two distinct graphs with identical
  // (V, E) would share a plan, which can only cost locality, never
  // correctness (any position partition is exact — see tiling.h). Plans are
  // derived from the CSR's offset array (the cached degree data) on first
  // use; `num_workers` shapes the parallel grain of the first computation
  // and is not part of the key (pool size is fixed per process).
  std::shared_ptr<const TilePlan> TilingFor(size_t unit_index, const Csr& csr,
                                            int num_workers) const;

 private:
  struct GeometryKey {
    size_t unit;
    int64_t items;
    int block;
    bool operator<(const GeometryKey& o) const {
      if (unit != o.unit) return unit < o.unit;
      if (items != o.items) return items < o.items;
      return block < o.block;
    }
  };
  mutable std::mutex geometry_mutex_;
  mutable std::map<GeometryKey, FatGeometry> geometry_cache_;

  struct TilingKey {
    size_t unit;
    int64_t vertices;
    int64_t edges;
    bool operator<(const TilingKey& o) const {
      if (unit != o.unit) return unit < o.unit;
      if (vertices != o.vertices) return vertices < o.vertices;
      return edges < o.edges;
    }
  };
  mutable std::mutex tiling_mutex_;
  mutable std::map<TilingKey, std::shared_ptr<const TilePlan>> tiling_cache_;
};

// Plans (fusion + materialization) and register-compiles `gir`. Returned via
// shared_ptr because CompiledProgram owns a mutex (the geometry memo) and is
// therefore immovable.
std::shared_ptr<CompiledProgram> CompileProgram(const GirGraph& gir, const FusionOptions& options);

// Fills in the null base pointers of a per-run copy of a template unit.
// `node_base[id]` is the base pointer of node id's backing tensor this run
// (leaf binding, degree tensor, or materialization buffer); entries for
// register-resident nodes stay null and are never consulted.
void PatchUnit(CompiledUnit* unit, const std::vector<float*>& node_base, int64_t num_vertices);

}  // namespace seastar

#endif  // SRC_EXEC_COMPILED_PROGRAM_H_
