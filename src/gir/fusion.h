// Seastar operator fusion (paper §6.2) and execution planning (§5.3).
//
// The fusion pass walks the GIR in topological order driving the 4-state
// finite state machine of Fig. 8:
//
//   state 0 --{S,D,E}--> 1          (source / edge stage)
//   state 1 --{S,D,E}--> 1
//   state 0,1 --A:D--> 2            (aggregate onto destinations)
//   state 0,1 --A:S--> 3            (aggregate onto sources)
//   state 2 --D--> 2                (post-aggregation vertex ops)
//   state 3 --S--> 3
//   anything else                   invalid -> the FSM restarts (new unit)
//
// Ties between multiple fusible parents use last-write-wins in topological
// parent order, which realizes the paper's "fuse with the nearest parent"
// rule (the GAT Div example of §6.2 falls out of this: Div's nearest parent
// is the AggSum in state 2, E is invalid from state 2, so Div restarts the
// FSM and starts the second fused unit).
//
// Beyond the paper's description we enforce two structural legality
// conditions a fused unit must satisfy to be executable as one kernel, and
// conservatively refuse a fusion that would violate them:
//   * all aggregations in a unit share one orientation (all A:D or all A:S);
//   * the unit dependency graph stays acyclic (a pre-aggregation op may not
//     consume, even transitively through another unit, an aggregation result
//     of its own unit — the GAT forward needs two kernels for this reason).
//
// The resulting ExecutionPlan partitions compute nodes into fused units and
// decides materialization (§5.3 / §6 "materialization planning"): only
// values consumed outside their unit (or marked as program outputs) are
// written to memory — D/S values as [num_vertices, width] tensors, E values
// as [num_edges, width] tensors; everything else lives in registers inside
// the generated kernel loop.
//
// With fusion on, a post-pass then trades materialization for recompute
// (RecomputeEdgeValues in fusion.cc); the FSM's unit boundaries stay as
// they are. An elementwise edge value that another unit reads, is no
// program output and has only leaves, scalars and materialized values as
// inputs is recomputed in the edge prologue of every unit that reads it,
// instead of being written as an [E, width] tensor; a unit the pass leaves
// empty is dropped. A Mul that an aggregation reads is left materialized,
// so no reducer folds it and no bit changes. GAT's backward loses its edge-only Div unit this way,
// and its unit 4 rebuilds Add(eu, ev) from the key and neighbour rows.
#ifndef SRC_GIR_FUSION_H_
#define SRC_GIR_FUSION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/gir/ir.h"

namespace seastar {

enum class NodeStage : uint8_t {
  kLeaf,    // kInput / kInputTypedSrc / kDegree: read, not computed.
  kScalar,  // P-type compute (constants); evaluated host-side.
  kPre,     // Edge-stage op (FSM state 1): evaluated per edge.
  kAgg,     // A-type op: accumulated across the edge loop.
  kPost,    // Vertex-stage op (FSM states 2/3): evaluated after the loop.
};

struct FusedUnit {
  // Topologically ordered compute nodes, including the values this unit
  // recomputes (a recomputed value appears in each unit that reads it).
  std::vector<int32_t> nodes;
  // Iteration side: kDst = in-CSR (key vertex is an edge's destination),
  // kSrc = out-CSR. Pure edge/vertex units default to kDst.
  GraphType orientation = GraphType::kDst;
  bool has_aggregation = false;
  // True when the unit touches edges at all (E/S-vs-D mixing or aggregation);
  // false for purely vertex-wise units, which skip the edge loop entirely.
  bool needs_edge_loop = false;
};

struct ExecutionPlan {
  std::vector<FusedUnit> units;        // Topologically ordered by dependency.
  // Per node: the earliest unit that computes it (a recomputed value is
  // listed in several); -1 for leaves/scalars.
  std::vector<int32_t> unit_of;
  std::vector<NodeStage> stage;        // Per node.
  std::vector<bool> materialized;      // Per node: written to a tensor.
  std::vector<int32_t> fsm_state;      // Per node; -1 where not applicable.

  std::string ToString(const GirGraph& graph) const;
};

struct FusionOptions {
  // Disabled => every compute node forms its own unit (the no-fusion
  // ablation; every intermediate is materialized).
  bool enable_fusion = true;
};

ExecutionPlan BuildExecutionPlan(const GirGraph& graph, const FusionOptions& options = {});

}  // namespace seastar

#endif  // SRC_GIR_FUSION_H_
