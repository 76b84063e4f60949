#include "src/gir/fusion.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "src/common/logging.h"

namespace seastar {
namespace {

// FSM operator category.
struct Category {
  bool is_agg = false;
  GraphType type = GraphType::kEdge;  // Output type; for aggs the orientation.
};

Category CategoryOf(const Node& node) {
  Category c;
  if (IsAggregation(node.kind)) {
    c.is_agg = true;
    c.type = node.type;  // kDst => A:D, kSrc => A:S.
  } else {
    c.type = node.type;
  }
  return c;
}

// Returns the next FSM state, or -1 when the transition is invalid.
int Transition(int state, const Category& c) {
  if (c.is_agg) {
    if ((state == 0 || state == 1)) {
      return c.type == GraphType::kDst ? 2 : 3;
    }
    return -1;
  }
  switch (state) {
    case 0:
    case 1:
      return (c.type == GraphType::kSrc || c.type == GraphType::kDst ||
              c.type == GraphType::kEdge)
                 ? 1
                 : -1;
    case 2:
      return c.type == GraphType::kDst ? 2 : -1;
    case 3:
      return c.type == GraphType::kSrc ? 3 : -1;
    default:
      return -1;
  }
}

// Incremental unit bookkeeping during the greedy topological sweep.
struct UnitState {
  std::vector<int32_t> nodes;
  bool has_agg = false;
  GraphType orientation = GraphType::kDst;
  bool orientation_fixed = false;
};

// The pointwise ops that write one value per input element: recomputing
// them costs their inputs' rows. The width reductions (DotProduct,
// ReduceWidthSum) read wider rows than they write, and AggMaxGrad is no
// prologue op.
bool IsRecomputable(OpKind kind) {
  return (IsElementwiseBinary(kind) || IsElementwiseUnary(kind)) &&
         kind != OpKind::kDotProduct && kind != OpKind::kReduceWidthSum &&
         kind != OpKind::kAggMaxGrad;
}

// The recompute post-pass. An elementwise edge value that another unit
// reads, that is not a program output, and whose inputs are all leaves,
// scalars or materialized values is not materialized: each unit that reads
// it recomputes it in its edge prologue from those same inputs, with the
// same functor, so every bit stays. A Mul that an aggregation reads stays
// materialized: unmaterialized, LowerUnit would fold it into the sum's
// multiply-add reducer (fused on FMA builds), which rounds differently
// from summing the stored products. Its own unit keeps a recomputed value
// only if a node there reads it; a unit left empty is dropped. Inputs are
// decided before their readers (ids are topological), so "materialized" is
// final for every input examined.
void RecomputeEdgeValues(const GirGraph& graph, ExecutionPlan* plan) {
  const auto reads = [&graph](const FusedUnit& unit, int32_t value) {
    return std::any_of(unit.nodes.begin(), unit.nodes.end(), [&](int32_t id) {
      const std::vector<int32_t>& inputs = graph.node(id).inputs;
      return std::find(inputs.begin(), inputs.end(), value) != inputs.end();
    });
  };
  const auto aggregated = [&graph](int32_t value) {
    return std::any_of(graph.nodes().begin(), graph.nodes().end(), [value](const Node& reader) {
      return IsAggregation(reader.kind) &&
             std::find(reader.inputs.begin(), reader.inputs.end(), value) != reader.inputs.end();
    });
  };
  for (int32_t id = 0; id < graph.num_nodes(); ++id) {
    const Node& node = graph.node(id);
    const int32_t home = plan->unit_of[static_cast<size_t>(id)];
    if (home < 0 || !plan->materialized[static_cast<size_t>(id)] || graph.IsOutput(id) ||
        node.type != GraphType::kEdge || !IsRecomputable(node.kind) ||
        (node.kind == OpKind::kMul && aggregated(id)) ||
        !std::all_of(node.inputs.begin(), node.inputs.end(), [plan](int32_t input) {
          return plan->unit_of[static_cast<size_t>(input)] < 0 ||
                 plan->materialized[static_cast<size_t>(input)];
        })) {
      continue;
    }
    int32_t first_reader = -1;
    for (size_t u = 0; u < plan->units.size(); ++u) {
      std::vector<int32_t>& nodes = plan->units[u].nodes;
      if (static_cast<int32_t>(u) == home || !reads(plan->units[u], id)) {
        continue;
      }
      nodes.insert(std::upper_bound(nodes.begin(), nodes.end(), id), id);
      first_reader = first_reader < 0 ? static_cast<int32_t>(u) : first_reader;
    }
    plan->materialized[static_cast<size_t>(id)] = false;
    FusedUnit& own = plan->units[static_cast<size_t>(home)];
    if (!reads(own, id)) {
      own.nodes.erase(std::find(own.nodes.begin(), own.nodes.end(), id));
      plan->unit_of[static_cast<size_t>(id)] = first_reader;
    }
  }
  // Drop the units the pass emptied; the rest keep their order.
  std::vector<int32_t> remap(plan->units.size(), -1);
  std::vector<FusedUnit> kept;
  for (size_t u = 0; u < plan->units.size(); ++u) {
    if (!plan->units[u].nodes.empty()) {
      remap[u] = static_cast<int32_t>(kept.size());
      kept.push_back(std::move(plan->units[u]));
    }
  }
  plan->units = std::move(kept);
  for (int32_t& u : plan->unit_of) {
    if (u >= 0) {
      u = remap[static_cast<size_t>(u)];
    }
  }
}

}  // namespace

ExecutionPlan BuildExecutionPlan(const GirGraph& graph, const FusionOptions& options) {
  const int32_t n = graph.num_nodes();
  ExecutionPlan plan;
  plan.unit_of.assign(static_cast<size_t>(n), -1);
  plan.stage.assign(static_cast<size_t>(n), NodeStage::kLeaf);
  plan.materialized.assign(static_cast<size_t>(n), false);
  plan.fsm_state.assign(static_cast<size_t>(n), -1);

  std::vector<UnitState> units;

  // Direct unit dependencies: dep_units[u] = units whose outputs u reads.
  std::vector<std::unordered_set<int32_t>> dep_units;

  // True when adding an edge dep -> u in the unit DAG would create a cycle,
  // i.e. dep is reachable FROM u.
  const auto reaches = [&](int32_t from, int32_t target) {
    if (from == target) {
      return true;
    }
    std::vector<int32_t> stack{from};
    std::unordered_set<int32_t> seen{from};
    while (!stack.empty()) {
      const int32_t u = stack.back();
      stack.pop_back();
      for (int32_t dep : dep_units[static_cast<size_t>(u)]) {
        if (dep == target) {
          return true;
        }
        if (seen.insert(dep).second) {
          stack.push_back(dep);
        }
      }
    }
    return false;
  };

  for (int32_t id = 0; id < n; ++id) {
    const Node& node = graph.node(id);
    if (IsLeaf(node.kind)) {
      plan.stage[static_cast<size_t>(id)] = NodeStage::kLeaf;
      continue;
    }
    if (node.type == GraphType::kParam) {
      plan.stage[static_cast<size_t>(id)] = NodeStage::kScalar;
      continue;
    }

    const Category cat = CategoryOf(node);

    // The FSM walk over parents, in increasing (topological) id order:
    // last-write-wins, reset on invalid (paper §6.2).
    int32_t chosen_unit = -1;
    int chosen_state = Transition(0, cat);
    SEASTAR_CHECK_GE(chosen_state, 0) << "untypeable op " << OpKindName(node.kind);
    if (options.enable_fusion) {
      std::vector<int32_t> parents = node.inputs;
      std::sort(parents.begin(), parents.end());  // Nearest (topo-latest) parent last.
      for (int32_t parent_id : parents) {
        const int32_t parent_unit = plan.unit_of[static_cast<size_t>(parent_id)];
        if (parent_unit < 0) {
          continue;  // Leaf or scalar parent: no FSM constraint.
        }
        const int parent_state = plan.fsm_state[static_cast<size_t>(parent_id)];
        const int t = Transition(parent_state, cat);
        bool legal = t >= 0;
        UnitState& candidate = units[static_cast<size_t>(parent_unit)];
        if (legal && cat.is_agg && candidate.orientation_fixed &&
            candidate.orientation != cat.type) {
          legal = false;  // Mixed aggregation orientations cannot share a kernel.
        }
        if (legal && t == 1) {
          // A pre-stage (edge-loop) op cannot consume an aggregation/post
          // value of its own unit — that value only exists after the loop.
          for (int32_t other_parent : node.inputs) {
            if (plan.unit_of[static_cast<size_t>(other_parent)] == parent_unit &&
                (plan.stage[static_cast<size_t>(other_parent)] == NodeStage::kAgg ||
                 plan.stage[static_cast<size_t>(other_parent)] == NodeStage::kPost)) {
              legal = false;
              break;
            }
          }
        }
        if (legal) {
          // Joining parent_unit must keep the unit DAG acyclic: every OTHER
          // unit this node reads from must not (transitively) depend on
          // parent_unit.
          for (int32_t other_parent : node.inputs) {
            const int32_t other_unit = plan.unit_of[static_cast<size_t>(other_parent)];
            if (other_unit >= 0 && other_unit != parent_unit &&
                reaches(other_unit, parent_unit)) {
              legal = false;
              break;
            }
          }
        }
        if (legal) {
          chosen_unit = parent_unit;
          chosen_state = t;
        } else {
          // Invalid transition: FSM restarts from state 0 (last-write-wins).
          chosen_unit = -1;
          chosen_state = Transition(0, cat);
        }
      }
    }

    if (chosen_unit < 0) {
      units.push_back(UnitState{});
      dep_units.emplace_back();
      chosen_unit = static_cast<int32_t>(units.size()) - 1;
    }
    UnitState& unit = units[static_cast<size_t>(chosen_unit)];
    unit.nodes.push_back(id);
    if (cat.is_agg) {
      unit.has_agg = true;
      unit.orientation = cat.type == GraphType::kSrc ? GraphType::kSrc : GraphType::kDst;
      unit.orientation_fixed = true;
    }
    plan.unit_of[static_cast<size_t>(id)] = chosen_unit;
    plan.fsm_state[static_cast<size_t>(id)] = chosen_state;
    plan.stage[static_cast<size_t>(id)] = cat.is_agg
                                              ? NodeStage::kAgg
                                              : (chosen_state == 1 ? NodeStage::kPre
                                                                   : NodeStage::kPost);

    // Record unit dependencies introduced by this node's cross-unit reads.
    for (int32_t parent_id : node.inputs) {
      const int32_t parent_unit = plan.unit_of[static_cast<size_t>(parent_id)];
      if (parent_unit >= 0 && parent_unit != chosen_unit) {
        dep_units[static_cast<size_t>(chosen_unit)].insert(parent_unit);
      }
    }
  }

  // Materialization planning: outputs, plus anything read by a different
  // unit (or by a scalar consumer, which cannot happen for non-P values).
  for (int32_t out : graph.outputs()) {
    if (plan.unit_of[static_cast<size_t>(out)] >= 0) {
      plan.materialized[static_cast<size_t>(out)] = true;
    }
  }
  for (int32_t id = 0; id < n; ++id) {
    const Node& node = graph.node(id);
    const int32_t my_unit = plan.unit_of[static_cast<size_t>(id)];
    for (int32_t parent_id : node.inputs) {
      const int32_t parent_unit = plan.unit_of[static_cast<size_t>(parent_id)];
      if (parent_unit >= 0 && parent_unit != my_unit) {
        plan.materialized[static_cast<size_t>(parent_id)] = true;
      }
    }
  }

  // Emit units in dependency (here: creation) order — creation order is
  // already topological because a unit only ever depends on units created
  // before its earliest node... which greedy joining can violate; sort
  // topologically over dep_units to be safe.
  std::vector<int32_t> order;
  {
    const int32_t num_units = static_cast<int32_t>(units.size());
    std::vector<int> mark(static_cast<size_t>(num_units), 0);  // 0=unseen 1=visiting 2=done
    std::vector<std::pair<int32_t, bool>> stack;
    for (int32_t u = 0; u < num_units; ++u) {
      if (mark[static_cast<size_t>(u)] != 0) {
        continue;
      }
      stack.emplace_back(u, false);
      while (!stack.empty()) {
        auto [v, expanded] = stack.back();
        stack.pop_back();
        if (expanded) {
          mark[static_cast<size_t>(v)] = 2;
          order.push_back(v);
          continue;
        }
        if (mark[static_cast<size_t>(v)] == 2) {
          continue;
        }
        SEASTAR_CHECK_NE(mark[static_cast<size_t>(v)], 1) << "cycle in unit DAG";
        mark[static_cast<size_t>(v)] = 1;
        stack.emplace_back(v, true);
        for (int32_t dep : dep_units[static_cast<size_t>(v)]) {
          if (mark[static_cast<size_t>(dep)] == 0) {
            stack.emplace_back(dep, false);
          } else {
            SEASTAR_CHECK_EQ(mark[static_cast<size_t>(dep)], 2) << "cycle in unit DAG";
          }
        }
      }
    }
  }

  std::vector<int32_t> unit_remap(units.size(), -1);
  for (size_t i = 0; i < order.size(); ++i) {
    unit_remap[static_cast<size_t>(order[i])] = static_cast<int32_t>(i);
  }
  plan.units.resize(units.size());
  for (size_t old_index = 0; old_index < units.size(); ++old_index) {
    UnitState& state = units[old_index];
    FusedUnit& unit = plan.units[static_cast<size_t>(unit_remap[old_index])];
    unit.nodes = std::move(state.nodes);
    unit.orientation = state.orientation;
    unit.has_aggregation = state.has_agg;
    for (int32_t id : unit.nodes) {
      const Node& node = graph.node(id);
      if (state.has_agg || node.type == GraphType::kEdge) {
        unit.needs_edge_loop = true;
      }
      // An S- or D-typed pre-stage op alone does not need edges, but if the
      // unit mixes S and D values it can only be evaluated edge-wise.
    }
    // Mixed S/D vertex values without aggregation => per-edge evaluation.
    bool has_s = false;
    bool has_d = false;
    for (int32_t id : unit.nodes) {
      const GraphType t = graph.node(id).type;
      has_s = has_s || t == GraphType::kSrc;
      has_d = has_d || t == GraphType::kDst;
    }
    if (has_s && has_d) {
      unit.needs_edge_loop = true;
    }
    if (!unit.has_aggregation && !unit.needs_edge_loop && has_s) {
      // Purely source-wise unit: iterate vertices as sources.
      unit.orientation = GraphType::kSrc;
    }
  }
  for (int32_t& u : plan.unit_of) {
    if (u >= 0) {
      u = unit_remap[static_cast<size_t>(u)];
    }
  }
  if (options.enable_fusion) {
    RecomputeEdgeValues(graph, &plan);
  }
  return plan;
}

std::string ExecutionPlan::ToString(const GirGraph& graph) const {
  std::ostringstream os;
  for (size_t i = 0; i < units.size(); ++i) {
    const FusedUnit& unit = units[i];
    os << "unit " << i << " [" << (unit.orientation == GraphType::kDst ? "A:D" : "A:S")
       << (unit.has_aggregation ? " agg" : "") << (unit.needs_edge_loop ? " edges" : "")
       << "]:";
    for (int32_t id : unit.nodes) {
      os << " %" << id << "=" << OpKindName(graph.node(id).kind);
      if (materialized[static_cast<size_t>(id)]) {
        os << "*";
      } else if (unit_of[static_cast<size_t>(id)] != static_cast<int32_t>(i)) {
        os << "^";  // A copy, recomputed here (the value's unit is unit_of).
      }
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace seastar
