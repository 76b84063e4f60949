#include "src/exec/compiled_program.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/common/tracing.h"

namespace seastar {
namespace {

// Trace label for a fused unit: "unit3:Mul+AggSum".
std::string UnitLabel(const GirGraph& gir, const FusedUnit& fused, size_t index) {
  std::string label = "unit" + std::to_string(index) + ":";
  for (size_t i = 0; i < fused.nodes.size(); ++i) {
    if (label.size() > 48) {
      label += "+…";
      break;
    }
    if (i > 0) {
      label += "+";
    }
    label += OpKindName(gir.node(fused.nodes[i]).kind);
  }
  return label;
}

}  // namespace

FatGeometry CompiledProgram::GeometryFor(size_t unit_index, int64_t num_items,
                                         int block_size) const {
  const GeometryKey key{unit_index, num_items, block_size};
  std::lock_guard<std::mutex> lock(geometry_mutex_);
  auto it = geometry_cache_.find(key);
  if (it == geometry_cache_.end()) {
    it = geometry_cache_
             .emplace(key, FatGeometry::Compute(num_items, units[unit_index].max_width,
                                                block_size))
             .first;
  }
  return it->second;
}

std::shared_ptr<const TilePlan> CompiledProgram::TilingFor(size_t unit_index, const Csr& csr,
                                                           int num_workers) const {
  const TilingKey key{unit_index, csr.num_vertices, csr.num_edges};
  std::lock_guard<std::mutex> lock(tiling_mutex_);
  auto it = tiling_cache_.find(key);
  if (it == tiling_cache_.end()) {
    const CompiledUnit& unit = units[unit_index];
    const int32_t width = unit.aggs.empty() ? unit.max_width : unit.aggs[0].width;
    it = tiling_cache_
             .emplace(key, std::make_shared<TilePlan>(ComputeTilePlan(
                               csr.offsets, csr.num_vertices, width, num_workers)))
             .first;
  }
  return it->second;
}

std::shared_ptr<CompiledProgram> CompileProgram(const GirGraph& gir,
                                                const FusionOptions& options) {
  auto result = std::make_shared<CompiledProgram>();
  CompiledProgram& program = *result;
  program.plan = BuildExecutionPlan(gir, options);
  const ExecutionPlan& plan = program.plan;

  // Host-side evaluation of P-typed scalars. These depend only on kConst
  // attrs (inputs of a P node are themselves P, in topological order), so
  // they are part of the compile artifact.
  program.scalar_value.assign(static_cast<size_t>(gir.num_nodes()), 0.0f);
  std::vector<float>& scalar_value = program.scalar_value;
  for (const Node& node : gir.nodes()) {
    if (node.kind == OpKind::kConst) {
      scalar_value[static_cast<size_t>(node.id)] = node.attr;
      continue;
    }
    if (node.type != GraphType::kParam || IsLeaf(node.kind)) {
      continue;
    }
    const auto sv = [&](int32_t id) { return scalar_value[static_cast<size_t>(id)]; };
    float value = 0.0f;
    switch (node.kind) {
      case OpKind::kAdd:
        value = sv(node.inputs[0]) + sv(node.inputs[1]);
        break;
      case OpKind::kSub:
        value = sv(node.inputs[0]) - sv(node.inputs[1]);
        break;
      case OpKind::kMul:
        value = sv(node.inputs[0]) * sv(node.inputs[1]);
        break;
      case OpKind::kDiv:
        value = sv(node.inputs[0]) / sv(node.inputs[1]);
        break;
      case OpKind::kNeg:
        value = -sv(node.inputs[0]);
        break;
      case OpKind::kExp:
        value = std::exp(sv(node.inputs[0]));
        break;
      default:
        SEASTAR_LOG(Fatal) << "unsupported scalar op " << OpKindName(node.kind);
    }
    scalar_value[static_cast<size_t>(node.id)] = value;
  }

  // Register-compile each fused unit into a pointer-free template.
  program.units.reserve(plan.units.size());
  program.unit_labels.reserve(plan.units.size());
  for (size_t unit_index = 0; unit_index < plan.units.size(); ++unit_index) {
    const FusedUnit& fused = plan.units[unit_index];
    program.unit_labels.push_back(trace::Intern(UnitLabel(gir, fused, unit_index)));

    CompiledUnit unit;
    unit.orientation = fused.orientation;
    unit.needs_edge_loop = fused.needs_edge_loop;

    // Register allocation.
    std::map<int32_t, int32_t> reg_of;
    int32_t cursor = 0;
    for (int32_t id : fused.nodes) {
      reg_of[id] = cursor;
      cursor += gir.node(id).width;
      unit.max_width = std::max(unit.max_width, gir.node(id).width);
    }

    const auto make_operand = [&](int32_t input_id) {
      Operand op;
      const Node& in = gir.node(input_id);
      op.width = in.width;
      auto reg_it = reg_of.find(input_id);
      if (reg_it != reg_of.end()) {
        op.src = Src::kReg;
        op.reg = reg_it->second;
        return op;
      }
      if (in.type == GraphType::kParam) {
        op.src = Src::kScalar;
        op.scalar = scalar_value[static_cast<size_t>(input_id)];
        return op;
      }
      // Everything else is backed by a per-run tensor (leaf feature, degree
      // tensor, or another unit's materialized value): record the node id,
      // the run patches the base pointer in.
      op.bind_node = input_id;
      if (in.kind == OpKind::kInputTypedSrc) {
        op.src = Src::kTypedRow;
      } else if (in.type == GraphType::kEdge) {
        op.src = Src::kEdgeRow;
      } else {
        op.src = in.type == unit.orientation ? Src::kKeyRow : Src::kNbrRow;
      }
      return op;
    };

    for (int32_t id : fused.nodes) {
      const Node& node = gir.node(id);
      if (IsAggregation(node.kind)) {
        AggInstr agg;
        agg.kind = node.kind;
        agg.width = node.width;
        agg.input = make_operand(node.inputs[0]);
        agg.acc_reg = reg_of.at(id);
        if (node.kind == OpKind::kAggTypeSumThenMax || node.kind == OpKind::kAggTypedToSrc) {
          agg.inner_reg = cursor;
          cursor += node.width;
          unit.has_typed_agg = true;
        }
        agg.materialized = plan.materialized[static_cast<size_t>(id)];
        if (agg.materialized) {
          agg.mat_node = id;
        }
        unit.aggs.push_back(agg);
        continue;
      }
      Instr instr;
      instr.kind = node.kind;
      instr.width = node.width;
      instr.attr = node.attr;
      instr.out_reg = reg_of.at(id);
      instr.a = make_operand(node.inputs[0]);
      if (node.inputs.size() > 1) {
        instr.b = make_operand(node.inputs[1]);
        instr.binary = true;
      }
      if (plan.materialized[static_cast<size_t>(id)]) {
        instr.mat_node = id;
        if (node.type == GraphType::kEdge) {
          instr.mat = MatKind::kEdgeRow;
        } else if (node.type == unit.orientation) {
          instr.mat = MatKind::kKeyRow;
        } else {
          instr.mat = MatKind::kNbrRow;
        }
      }
      const NodeStage stage = plan.stage[static_cast<size_t>(id)];
      if (stage == NodeStage::kPost) {
        unit.post.push_back(instr);
      } else if (node.type == unit.orientation || node.type == GraphType::kParam) {
        unit.invariant.push_back(instr);
      } else {
        unit.edge.push_back(instr);
      }
    }
    unit.scratch_floats = cursor;

    // Classify the edge loop (see FastPath in compiled_program.h). Typed
    // rows are excluded: their resolution needs the edge type, which the
    // specialized loops do not track.
    const auto plain_row = [](const Operand& op) {
      return op.src == Src::kKeyRow || op.src == Src::kNbrRow || op.src == Src::kEdgeRow ||
             op.src == Src::kScalar || op.src == Src::kReg;
    };
    if (!unit.has_typed_agg && unit.needs_edge_loop && unit.aggs.size() == 1) {
      const AggInstr& agg = unit.aggs[0];
      const bool sum_like = agg.kind == OpKind::kAggSum || agg.kind == OpKind::kAggMean;
      if (sum_like && unit.edge.empty() && agg.input.src != Src::kReg &&
          agg.input.src != Src::kTypedRow) {
        unit.fast_path = FastPath::kCopySum;
      } else if (sum_like && unit.edge.size() == 1) {
        const Instr& e = unit.edge[0];
        if (e.kind == OpKind::kMul && e.mat == MatKind::kNone && agg.input.src == Src::kReg &&
            agg.input.reg == e.out_reg && agg.input.width == agg.width &&
            plain_row(e.a) && plain_row(e.b)) {
          unit.fast_path = FastPath::kMulSum;
        }
      }
    }

    // Tilable: a fast-path unit whose per-vertex work is *only* the edge loop
    // plus the aggregation store — no invariant/post instructions whose
    // register values would have to survive across feature tiles — and whose
    // operands are plain rows (or full-row copies) so a column range [c0, c1)
    // of the accumulator depends only on the same column range (or the
    // width-1 broadcast) of the inputs.
    if (unit.fast_path != FastPath::kNone && unit.invariant.empty() && unit.post.empty() &&
        unit.aggs.size() == 1 && unit.aggs[0].materialized) {
      const AggInstr& agg = unit.aggs[0];
      if (unit.fast_path == FastPath::kCopySum) {
        unit.tilable = agg.input.width == agg.width || agg.input.width == 1;
      } else {
        const Instr& e = unit.edge[0];
        const auto concrete_row = [](const Operand& op) {
          return op.src == Src::kKeyRow || op.src == Src::kNbrRow || op.src == Src::kEdgeRow;
        };
        const int32_t w = agg.width;
        const bool widths_ok = (e.a.width == w && e.b.width == 1) ||
                               (e.a.width == 1 && e.b.width == w) ||
                               (e.a.width == w && e.b.width == w);
        unit.tilable = concrete_row(e.a) && concrete_row(e.b) && widths_ok;
      }
    }
    program.units.push_back(std::move(unit));
  }
  return result;
}

namespace {

void PatchOperand(Operand* op, const std::vector<float*>& node_base) {
  if (op->bind_node < 0) {
    return;
  }
  const float* base = node_base[static_cast<size_t>(op->bind_node)];
  SEASTAR_CHECK(base != nullptr)
      << "node %" << op->bind_node << " consumed across units but not materialized";
  op->base = base;
}

void PatchInstr(Instr* instr, const std::vector<float*>& node_base) {
  PatchOperand(&instr->a, node_base);
  if (instr->binary) {
    PatchOperand(&instr->b, node_base);
  }
  if (instr->mat_node >= 0) {
    instr->mat_base = node_base[static_cast<size_t>(instr->mat_node)];
    SEASTAR_CHECK(instr->mat_base != nullptr)
        << "materialization buffer for node %" << instr->mat_node << " missing";
  }
}

}  // namespace

void PatchUnit(CompiledUnit* unit, const std::vector<float*>& node_base, int64_t num_vertices) {
  for (Instr& instr : unit->invariant) {
    PatchInstr(&instr, node_base);
  }
  for (Instr& instr : unit->edge) {
    PatchInstr(&instr, node_base);
  }
  for (Instr& instr : unit->post) {
    PatchInstr(&instr, node_base);
  }
  for (AggInstr& agg : unit->aggs) {
    PatchOperand(&agg.input, node_base);
    agg.typed_rows = num_vertices;
    if (agg.mat_node >= 0) {
      agg.mat_base = node_base[static_cast<size_t>(agg.mat_node)];
      SEASTAR_CHECK(agg.mat_base != nullptr)
          << "materialization buffer for node %" << agg.mat_node << " missing";
    }
  }
}

}  // namespace seastar
