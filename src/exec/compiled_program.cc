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

// Float offset rounded up to a 64-byte boundary.
int32_t AlignFloats(int64_t floats) { return static_cast<int32_t>((floats + 15) & ~int64_t{15}); }

bool IsKeySide(const Operand& op) { return op.src == Src::kKeyRow || op.src == Src::kReg; }

// Compiles `unit`'s register program into the segment-launch form (see
// CompiledUnit): folds Identity copies into their readers, picks each
// aggregation's reducer, and lays out the per-worker edge batch.
// `register_floats` is the register-row width the allocation needs.
void LowerUnit(CompiledUnit* unit, int32_t register_floats) {
  // Key-side ops run per key against its register row, which holds no
  // per-edge value.
  for (const std::vector<Instr>* list : {&unit->invariant, &unit->post}) {
    for (const Instr& instr : *list) {
      for (const Operand* op : {&instr.a, &instr.b}) {
        SEASTAR_CHECK(op->src == Src::kReg || op->src == Src::kKeyRow ||
                      op->src == Src::kScalar)
            << "key-side op " << OpKindName(instr.kind) << " reads a per-edge operand";
      }
    }
  }

  // Fold full-width Identity copies into their readers: the prologue then
  // reads the copied row where it lives instead of staging it in the batch.
  std::map<int32_t, Operand> alias;  // Register -> the operand it copies.
  const auto rewrite = [&alias](Operand* op) {
    if (op->src != Src::kReg) {
      return;
    }
    auto it = alias.find(op->reg);
    if (it != alias.end()) {
      *op = it->second;
    }
  };
  std::vector<Instr> prologue;
  for (Instr instr : unit->edge) {
    rewrite(&instr.a);
    if (instr.binary) {
      rewrite(&instr.b);
    }
    if (instr.kind == OpKind::kIdentity && instr.mat == MatKind::kNone &&
        instr.a.width == instr.width) {
      alias[instr.out_reg] = instr.a;
      continue;
    }
    prologue.push_back(instr);
  }
  for (AggInstr& agg : unit->aggs) {
    rewrite(&agg.x);
  }

  // The reductions. Max folds with its own reducer; every sum folds with an
  // add, except that a non-materialized Mul feeding a sum and nothing else
  // folds into the reduction kernel (acc += x * y), as long as its operands
  // are the full row and a (grouped) broadcast scale, or two full rows. The
  // inner sums of kAggTypeSumThenMax stay plain adds, so max units keep the
  // bits of rounding each product.
  const auto reads = [](const Operand& op, int32_t reg) {
    return op.src == Src::kReg && op.reg == reg;
  };
  for (AggInstr& agg : unit->aggs) {
    agg.reduce = agg.kind == OpKind::kAggMax ? Reduce::kMax : Reduce::kAdd;
    if (agg.kind == OpKind::kAggMax || agg.kind == OpKind::kAggTypeSumThenMax ||
        agg.x.src != Src::kReg || agg.x.width != agg.width) {
      continue;
    }
    const int32_t reg = agg.x.reg;
    auto mul = std::find_if(prologue.begin(), prologue.end(),
                            [reg](const Instr& instr) { return instr.out_reg == reg; });
    const bool read_elsewhere =
        std::any_of(prologue.begin(), prologue.end(),
                    [&](const Instr& instr) {
                      return reads(instr.a, reg) || (instr.binary && reads(instr.b, reg));
                    }) ||
        std::any_of(unit->aggs.begin(), unit->aggs.end(), [&](const AggInstr& other) {
          return &other != &agg && (reads(other.x, reg) || reads(other.y, reg));
        });
    if (mul == prologue.end() || mul->kind != OpKind::kMul || mul->mat != MatKind::kNone ||
        read_elsewhere) {
      continue;
    }
    const int32_t w = agg.width;
    if (mul->a.width == w && mul->b.width < w) {
      agg.reduce = Reduce::kAxpy;
      agg.x = mul->a;
      agg.y = mul->b;
    } else if (mul->a.width < w && mul->b.width == w) {
      agg.reduce = Reduce::kAxpy;
      agg.x = mul->b;
      agg.y = mul->a;
    } else if (mul->a.width == w && mul->b.width == w) {
      agg.reduce = Reduce::kMulAdd;
      agg.x = mul->a;
      agg.y = mul->b;
    }
    if (agg.reduce != Reduce::kAdd) {
      prologue.erase(mul);
    }
  }

  // Which per-slot index arrays the chunk needs.
  const auto note = [unit](const Operand& op) {
    unit->needs_slot_keys = unit->needs_slot_keys || IsKeySide(op);
    unit->needs_typed_slots = unit->needs_typed_slots || op.src == Src::kTypedRow;
  };
  for (const Instr& instr : prologue) {
    note(instr.a);
    if (instr.binary) {
      note(instr.b);
    }
  }
  for (const AggInstr& agg : unit->aggs) {
    note(agg.x);
    note(agg.y);
  }

  // Batch geometry: half the L1 budget for the key register rows, half for
  // the edge batch (prologue regions plus the int32 slot-index arrays).
  const int64_t half_budget = TilePlanOptions{}.l1_budget_bytes / int64_t{2 * sizeof(float)};
  int64_t edge_floats = unit->needs_typed_slots ? 3 : 2;
  for (const Instr& instr : prologue) {
    edge_floats += instr.width;
  }
  unit->key_stride = AlignFloats(std::max(register_floats, 1));
  unit->batch_keys = static_cast<int32_t>(std::max<int64_t>(1, half_budget / unit->key_stride));
  unit->batch_edges = static_cast<int32_t>(std::max<int64_t>(16, half_budget / edge_floats));

  // Give every prologue op a batch region and point its readers there.
  std::map<int32_t, int32_t> region;  // Register -> batch offset.
  const auto to_batch = [&region](Operand* op) {
    if (op->src != Src::kReg) {
      return;
    }
    auto it = region.find(op->reg);
    if (it != region.end()) {
      op->src = Src::kBatch;
      op->reg = it->second;
    }
  };
  int32_t cursor = 0;
  for (Instr& instr : prologue) {
    to_batch(&instr.a);
    if (instr.binary) {
      to_batch(&instr.b);
    }
    region[instr.out_reg] = cursor;
    instr.out_reg = cursor;
    cursor += AlignFloats(int64_t{unit->batch_edges} * instr.width);
  }
  for (AggInstr& agg : unit->aggs) {
    to_batch(&agg.x);
    to_batch(&agg.y);
  }
  unit->batch_floats = cursor;
  unit->edge = std::move(prologue);
}

}  // namespace

std::shared_ptr<const TilePlan> CompiledProgram::TilingFor(size_t unit_index, const Csr& csr,
                                                           int num_workers) const {
  const bool tiled = TilingEnabled();
  const TilingKey key{unit_index, csr.num_vertices, csr.num_edges, tiled};
  std::lock_guard<std::mutex> lock(tiling_mutex_);
  auto it = tiling_cache_.find(key);
  if (it == tiling_cache_.end()) {
    const CompiledUnit& unit = units[unit_index];
    int32_t width = unit.aggs.empty() ? unit.max_width : 1;
    for (const AggInstr& agg : unit.aggs) {
      width = std::max(width, agg.width);
    }
    it = tiling_cache_
             .emplace(key, std::make_shared<TilePlan>(
                               tiled ? ComputeTilePlan(csr.offsets, csr.num_vertices, width,
                                                       num_workers)
                                     : SingleSegmentPlan(csr.num_vertices, width)))
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

  // The unit after which each materialized intermediate is dead.
  // A recomputed value reads its inputs in every unit that lists it.
  std::vector<int32_t> last_reader(static_cast<size_t>(gir.num_nodes()), -1);
  for (size_t unit = 0; unit < plan.units.size(); ++unit) {
    for (int32_t id : plan.units[unit].nodes) {
      for (int32_t input : gir.node(id).inputs) {
        int32_t& last = last_reader[static_cast<size_t>(input)];
        last = std::max(last, static_cast<int32_t>(unit));
      }
    }
  }
  program.release_after.assign(plan.units.size(), {});
  for (int32_t id = 0; id < gir.num_nodes(); ++id) {
    const int32_t last = last_reader[static_cast<size_t>(id)];
    if (plan.materialized[static_cast<size_t>(id)] && !gir.IsOutput(id) && last >= 0) {
      program.release_after[static_cast<size_t>(last)].push_back(id);
    }
  }

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
        agg.x = make_operand(node.inputs[0]);
        agg.acc_reg = reg_of.at(id);
        if (IsTwoLevel(node.kind)) {
          agg.inner_reg = cursor;
          cursor += node.width;
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
    LowerUnit(&unit, cursor);
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

void PatchUnit(CompiledUnit* unit, const std::vector<float*>& node_base) {
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
    PatchOperand(&agg.x, node_base);
    PatchOperand(&agg.y, node_base);
    if (agg.mat_node >= 0) {
      agg.mat_base = node_base[static_cast<size_t>(agg.mat_node)];
      SEASTAR_CHECK(agg.mat_base != nullptr)
          << "materialization buffer for node %" << agg.mat_node << " missing";
    }
  }
}

}  // namespace seastar
