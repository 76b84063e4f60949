#include "src/exec/baseline_executor.h"

#include <atomic>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <functional>

#include "src/common/deadline.h"
#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/common/tracing.h"
#include "src/exec/pointwise.h"
#include "src/parallel/thread_pool.h"
#include "src/tensor/allocator.h"

namespace seastar {

using trace::Arg;
namespace {

inline void AtomicAdd(float* target, float value) {
  std::atomic_ref<float> ref(*target);
  float current = ref.load(std::memory_order_relaxed);
  while (!ref.compare_exchange_weak(current, current + value, std::memory_order_relaxed)) {
  }
}

inline void AtomicMax(float* target, float value) {
  std::atomic_ref<float> ref(*target);
  float current = ref.load(std::memory_order_relaxed);
  while (current < value &&
         !ref.compare_exchange_weak(current, value, std::memory_order_relaxed)) {
  }
}

// Binary search over the CSR vertex-offset array to find the position whose
// slot range contains `slot` — exactly the per-edge destination lookup of
// DGL's minigun kernels (paper §6.3).
inline int64_t FindKeyPosition(const std::vector<int64_t>& offsets, int64_t slot) {
  int64_t lo = 0;
  int64_t hi = static_cast<int64_t>(offsets.size()) - 2;
  while (lo < hi) {
    const int64_t mid = (lo + hi + 1) / 2;
    if (offsets[static_cast<size_t>(mid)] <= slot) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

// Per-node value accessor for edge-wise evaluation.
struct EdgeOperand {
  enum class Kind { kEdgeTensor, kSrcVertex, kDstVertex, kTypedSrc, kScalar } kind;
  const float* base = nullptr;
  int32_t width = 1;
  float scalar = 0.0f;
  int64_t typed_stride = 0;  // num_vertices for kTypedSrc.

  inline const float* At(int64_t eid, int64_t src, int64_t dst, int32_t etype) const {
    switch (kind) {
      case Kind::kEdgeTensor:
        return base + eid * width;
      case Kind::kSrcVertex:
        return base + src * width;
      case Kind::kDstVertex:
        return base + dst * width;
      case Kind::kTypedSrc:
        return base + (static_cast<int64_t>(etype) * typed_stride + src) * width;
      case Kind::kScalar:
        return &scalar;
    }
    return nullptr;
  }
};

}  // namespace

RunResult BaselineExecutor::Run(const GirGraph& gir, const Graph& graph,
                                const FeatureMap& features, const RunContext& ctx) const {
  const std::vector<int32_t>* retain = ctx.retain;
  trace::AmbientSpan run_span(options_.flavor == BaselineFlavor::kDglLike ? "dgl" : "pyg",
                             "exec");
  const bool traced = run_span.active();
  const uint64_t run_live_before = TensorAllocator::Get().live_bytes();
  const uint64_t run_peak_before = TensorAllocator::Get().peak_bytes();
  int64_t launches = 0;  // This run's kernel launches (see KernelLaunchesTotal).

  const int64_t num_vertices = graph.num_vertices();
  const int64_t num_edges = graph.num_edges();
  const int32_t num_types = graph.num_edge_types();
  const bool pyg = options_.flavor == BaselineFlavor::kPygLike;

  auto saved = std::make_shared<std::map<int32_t, Tensor>>();
  std::vector<float> scalar_value(static_cast<size_t>(gir.num_nodes()), 0.0f);
  std::vector<bool> is_scalar(static_cast<size_t>(gir.num_nodes()), false);

  const auto consumers = gir.BuildConsumerLists();

  // Eager temporary release (only when the caller tells us what autograd
  // retains): once a node's last consumer has run, its tensor — and any
  // gathered edge copy derived from it — is dropped from the live map.
  std::vector<int32_t> remaining_uses(static_cast<size_t>(gir.num_nodes()), 0);
  std::vector<bool> keep(static_cast<size_t>(gir.num_nodes()), retain == nullptr);
  if (retain != nullptr) {
    for (int32_t id = 0; id < gir.num_nodes(); ++id) {
      remaining_uses[static_cast<size_t>(id)] =
          static_cast<int32_t>(consumers[static_cast<size_t>(id)].size());
    }
    for (int32_t id : *retain) {
      if (id >= 0 && id < gir.num_nodes()) {
        keep[static_cast<size_t>(id)] = true;
      }
    }
    for (int32_t out : gir.outputs()) {
      keep[static_cast<size_t>(out)] = true;
    }
    for (const Node& node : gir.nodes()) {
      if (IsLeaf(node.kind)) {
        keep[static_cast<size_t>(node.id)] = true;  // Caller-owned inputs.
      }
    }
  }

  // Nodes skipped by BinaryReduce fusion (value never materialized).
  std::vector<bool> fused_away(static_cast<size_t>(gir.num_nodes()), false);
  if (!pyg) {
    for (const Node& node : gir.nodes()) {
      if ((node.kind == OpKind::kAggSum || node.kind == OpKind::kAggMean) &&
          node.type != GraphType::kParam) {
        const Node& input = gir.node(node.inputs[0]);
        if (IsElementwiseBinary(input.kind) &&
            (input.type == GraphType::kEdge || input.type == GraphType::kSrc) &&
            consumers[static_cast<size_t>(input.id)].size() == 1 && !gir.IsOutput(input.id)) {
          // Its operands must themselves be plain tensors (not fused away).
          fused_away[static_cast<size_t>(input.id)] = true;
        }
      }
    }
  }

  const auto value_of = [&](int32_t id) -> const Tensor& {
    auto it = saved->find(id);
    SEASTAR_CHECK(it != saved->end()) << "value %" << id << " not computed";
    return it->second;
  };

  const auto make_edge_operand = [&](int32_t id) {
    EdgeOperand op;
    const Node& node = gir.node(id);
    op.width = node.width;
    if (is_scalar[static_cast<size_t>(id)]) {
      op.kind = EdgeOperand::Kind::kScalar;
      op.scalar = scalar_value[static_cast<size_t>(id)];
      return op;
    }
    const Tensor& tensor = value_of(id);
    op.base = tensor.data();
    if (node.kind == OpKind::kInputTypedSrc ||
        (node.kind == OpKind::kAggTypedToSrc)) {
      op.kind = EdgeOperand::Kind::kTypedSrc;
      op.typed_stride = num_vertices;
    } else if (node.type == GraphType::kEdge) {
      op.kind = EdgeOperand::Kind::kEdgeTensor;
    } else if (node.type == GraphType::kSrc) {
      op.kind = EdgeOperand::Kind::kSrcVertex;
    } else {
      op.kind = EdgeOperand::Kind::kDstVertex;
    }
    return op;
  };

  // PyG gathers S/D operands of edge-wise ops into [E, w] tensors first
  // (x_j / x_i). The gathered tensor is itself recorded in `saved`, so it
  // counts toward peak memory like any other PyG intermediate.
  std::map<int32_t, Tensor> gathered_cache;
  const auto pyg_gather = [&](int32_t id) -> EdgeOperand {
    const Node& node = gir.node(id);
    EdgeOperand op;
    op.width = node.width;
    auto it = gathered_cache.find(id);
    if (it == gathered_cache.end()) {
      Tensor edge_tensor({num_edges, node.width});
      const Tensor& source = value_of(id);
      const bool typed = node.kind == OpKind::kInputTypedSrc;
      const auto& src_ids = graph.edge_src();
      const auto& dst_ids = graph.edge_dst();
      const auto& type_ids = graph.edge_type();
      ParallelFor(num_edges, [&](int64_t begin, int64_t end) {
        for (int64_t e = begin; e < end; ++e) {
          const int64_t row =
              typed ? (static_cast<int64_t>(type_ids[static_cast<size_t>(e)]) * num_vertices +
                       src_ids[static_cast<size_t>(e)])
                    : (node.type == GraphType::kSrc
                           ? static_cast<int64_t>(src_ids[static_cast<size_t>(e)])
                           : static_cast<int64_t>(dst_ids[static_cast<size_t>(e)]));
          std::memcpy(edge_tensor.data() + e * node.width, source.data() + row * node.width,
                      static_cast<size_t>(node.width) * sizeof(float));
        }
      });
      ++launches;  // The gather is its own kernel in PyG.
      it = gathered_cache.emplace(id, edge_tensor).first;
      (*saved)[-1000 - id] = edge_tensor;  // Account it as a live intermediate.
    }
    op.kind = EdgeOperand::Kind::kEdgeTensor;
    op.base = it->second.data();
    return op;
  };

  const auto edge_operand = [&](int32_t id) {
    const Node& node = gir.node(id);
    const bool vertex_indexed =
        node.type != GraphType::kEdge || node.kind == OpKind::kInputTypedSrc;
    if (pyg && !is_scalar[static_cast<size_t>(id)] && vertex_indexed) {
      return pyg_gather(id);
    }
    return make_edge_operand(id);
  };

  // Evaluates an edge-wise pointwise node into a [E, w] tensor.
  const auto eval_edge_pointwise = [&](const Node& node) {
    ++launches;
    Tensor out({num_edges, node.width});
    EdgeOperand a = edge_operand(node.inputs[0]);
    EdgeOperand b;
    const bool binary = node.inputs.size() > 1;
    if (binary) {
      b = edge_operand(node.inputs[1]);
    }
    float* out_base = out.data();
    if (pyg) {
      // COO traversal: direct edge-id indexing, no search.
      const auto& src_ids = graph.edge_src();
      const auto& dst_ids = graph.edge_dst();
      const auto& type_ids = graph.edge_type();
      ParallelFor(num_edges, [&](int64_t begin, int64_t end) {
        for (int64_t e = begin; e < end; ++e) {
          const int64_t src = src_ids[static_cast<size_t>(e)];
          const int64_t dst = dst_ids[static_cast<size_t>(e)];
          const int32_t etype = type_ids.empty() ? 0 : type_ids[static_cast<size_t>(e)];
          PointwiseApply(node.kind, node.attr, out_base + e * node.width, node.width,
                         a.At(e, src, dst, etype), a.width,
                         binary ? b.At(e, src, dst, etype) : nullptr, b.width);
        }
      });
    } else {
      // DGL/minigun: edge-parallel over CSR slots; the destination is found
      // with a binary search per edge.
      const Csr& csr = graph.in_csr();
      ParallelFor(num_edges, [&](int64_t begin, int64_t end) {
        for (int64_t slot = begin; slot < end; ++slot) {
          const int64_t position = FindKeyPosition(csr.offsets, slot);
          const int64_t dst = csr.position_vertex[static_cast<size_t>(position)];
          const int64_t src = csr.nbr_ids[static_cast<size_t>(slot)];
          const int64_t eid = csr.edge_ids[static_cast<size_t>(slot)];
          const int32_t etype =
              csr.edge_types.empty() ? 0 : csr.edge_types[static_cast<size_t>(slot)];
          PointwiseApply(node.kind, node.attr, out_base + eid * node.width, node.width,
                         a.At(eid, src, dst, etype), a.width,
                         binary ? b.At(eid, src, dst, etype) : nullptr, b.width);
        }
      });
    }
    return out;
  };

  // Aggregates an edge-evaluable operand onto `orientation` rows, returning
  // [N, w] (or [T, N, w] for typed). `op_a`/`op_b`/`fused_kind` implement
  // DGL's BinaryReduce: when fused_kind != kIdentity the per-edge value is
  // op(a, b) computed on the fly.
  const auto eval_aggregate = [&](const Node& node) {
    ++launches;
    const GraphType orientation =
        node.kind == OpKind::kAggTypedToSrc
            ? GraphType::kSrc
            : (node.type == GraphType::kSrc ? GraphType::kSrc : GraphType::kDst);
    const bool typed_out = node.kind == OpKind::kAggTypedToSrc;

    const Node& input = gir.node(node.inputs[0]);
    OpKind fused_kind = OpKind::kIdentity;
    float fused_attr = 0.0f;
    EdgeOperand a;
    EdgeOperand b;
    bool binary = false;
    if (fused_away[static_cast<size_t>(input.id)]) {
      fused_kind = input.kind;
      fused_attr = input.attr;
      a = edge_operand(input.inputs[0]);
      b = edge_operand(input.inputs[1]);
      binary = true;
    } else {
      a = edge_operand(input.id);
    }

    Tensor out = typed_out ? Tensor::Zeros({num_types, num_vertices, node.width})
                           : Tensor::Zeros({num_vertices, node.width});
    if (node.kind == OpKind::kAggMax) {
      out.Fill(-FLT_MAX);
    }
    float* out_base = out.data();
    const int32_t w = node.width;

    const auto accumulate = [&](int64_t eid, int64_t src, int64_t dst, int32_t etype,
                                std::vector<float>& tmp) {
      const float* value;
      if (binary) {
        PointwiseApply(fused_kind, fused_attr, tmp.data(), w, a.At(eid, src, dst, etype), a.width,
                       b.At(eid, src, dst, etype), b.width);
        value = tmp.data();
      } else {
        value = a.At(eid, src, dst, etype);
      }
      float* row;
      if (typed_out) {
        row = out_base + (static_cast<int64_t>(etype) * num_vertices + src) * w;
      } else {
        row = out_base + (orientation == GraphType::kDst ? dst : src) * w;
      }
      // The value's width is w: an aggregation keeps its input's width
      // (GirGraph::AddNode checks it).
      if (node.kind == OpKind::kAggMax) {
        for (int32_t j = 0; j < w; ++j) {
          AtomicMax(&row[j], value[j]);
        }
      } else {
        for (int32_t j = 0; j < w; ++j) {
          AtomicAdd(&row[j], value[j]);
        }
      }
    };

    if (pyg) {
      const auto& src_ids = graph.edge_src();
      const auto& dst_ids = graph.edge_dst();
      const auto& type_ids = graph.edge_type();
      ParallelFor(num_edges, [&](int64_t begin, int64_t end) {
        std::vector<float> local(static_cast<size_t>(w));  // Fused-binary scratch.
        for (int64_t e = begin; e < end; ++e) {
          const int32_t etype = type_ids.empty() ? 0 : type_ids[static_cast<size_t>(e)];
          accumulate(e, src_ids[static_cast<size_t>(e)], dst_ids[static_cast<size_t>(e)], etype,
                     local);
        }
      });
    } else {
      const Csr& csr =
          orientation == GraphType::kDst ? graph.in_csr() : graph.out_csr();
      ParallelFor(num_edges, [&](int64_t begin, int64_t end) {
        std::vector<float> local(static_cast<size_t>(w));
        for (int64_t slot = begin; slot < end; ++slot) {
          const int64_t position = FindKeyPosition(csr.offsets, slot);
          const int64_t key = csr.position_vertex[static_cast<size_t>(position)];
          const int64_t nbr = csr.nbr_ids[static_cast<size_t>(slot)];
          const int64_t eid = csr.edge_ids[static_cast<size_t>(slot)];
          const int32_t etype =
              csr.edge_types.empty() ? 0 : csr.edge_types[static_cast<size_t>(slot)];
          const int64_t src = orientation == GraphType::kDst ? nbr : key;
          const int64_t dst = orientation == GraphType::kDst ? key : nbr;
          accumulate(eid, src, dst, etype, local);
        }
      });
    }

    // Finalization.
    if (node.kind == OpKind::kAggMean) {
      for (int64_t v = 0; v < num_vertices; ++v) {
        const int64_t deg = orientation == GraphType::kDst
                                ? graph.InDegree(static_cast<int32_t>(v))
                                : graph.OutDegree(static_cast<int32_t>(v));
        const float inv = deg > 0 ? 1.0f / static_cast<float>(deg) : 0.0f;
        for (int32_t j = 0; j < w; ++j) {
          out_base[v * w + j] *= inv;
        }
      }
    }
    if (node.kind == OpKind::kAggMax) {
      for (int64_t v = 0; v < num_vertices; ++v) {
        const int64_t deg = orientation == GraphType::kDst
                                ? graph.InDegree(static_cast<int32_t>(v))
                                : graph.OutDegree(static_cast<int32_t>(v));
        if (deg == 0) {
          for (int32_t j = 0; j < w; ++j) {
            out_base[v * w + j] = 0.0f;
          }
        }
      }
    }
    return out;
  };

  // kAggTypeSumThenMax, whole-tensor style: per-type sums then max over
  // types (a tensor system computes this with a [T, N, w] temporary).
  const auto eval_type_sum_then_max = [&](const Node& node) {
    launches += 2;  // Scatter pass + reduce pass.
    const int32_t w = node.width;
    Tensor per_type = Tensor::Zeros({num_types, num_vertices, w});
    EdgeOperand a = edge_operand(node.inputs[0]);
    float* pt = per_type.data();
    const auto& src_ids = graph.edge_src();
    const auto& dst_ids = graph.edge_dst();
    const auto& type_ids = graph.edge_type();
    for (int64_t e = 0; e < num_edges; ++e) {
      const int64_t src = src_ids[static_cast<size_t>(e)];
      const int64_t dst = dst_ids[static_cast<size_t>(e)];
      const int32_t etype = type_ids.empty() ? 0 : type_ids[static_cast<size_t>(e)];
      const float* value = a.At(e, src, dst, etype);
      float* row = pt + (static_cast<int64_t>(etype) * num_vertices + dst) * w;
      for (int32_t j = 0; j < w; ++j) {
        row[j] += value[j];
      }
    }
    (*saved)[-2000 - node.id] = per_type;  // The [T, N, w] temporary is real memory.
    Tensor out = Tensor::Zeros({num_vertices, w});
    // Vertices with no edges of a type should not see that type's zero sum
    // unless they have no edges at all; the paper's hierarchical scheme
    // aggregates only over present types. Track presence per (type, vertex).
    std::vector<uint8_t> present(static_cast<size_t>(num_types * num_vertices), 0);
    for (int64_t e = 0; e < num_edges; ++e) {
      const int32_t etype = type_ids.empty() ? 0 : type_ids[static_cast<size_t>(e)];
      present[static_cast<size_t>(etype * num_vertices + dst_ids[static_cast<size_t>(e)])] = 1;
    }
    for (int64_t v = 0; v < num_vertices; ++v) {
      bool any = false;
      for (int32_t t = 0; t < num_types; ++t) {
        if (!present[static_cast<size_t>(t) * static_cast<size_t>(num_vertices) +
                     static_cast<size_t>(v)]) {
          continue;
        }
        const float* row = pt + (static_cast<int64_t>(t) * num_vertices + v) * w;
        float* out_row = out.data() + v * w;
        if (!any) {
          std::memcpy(out_row, row, static_cast<size_t>(w) * sizeof(float));
          any = true;
        } else {
          for (int32_t j = 0; j < w; ++j) {
            out_row[j] = std::max(out_row[j], row[j]);
          }
        }
      }
    }
    return out;
  };

  // Frees tensors whose last consumer has executed (see `retain`).
  std::function<void(int32_t)> release_use = [&](int32_t id) {
    if (retain == nullptr) {
      return;
    }
    if (fused_away[static_cast<size_t>(id)]) {
      // The fused binary was consumed through its operands.
      for (int32_t input : gir.node(id).inputs) {
        release_use(input);
      }
      return;
    }
    if (--remaining_uses[static_cast<size_t>(id)] > 0 || keep[static_cast<size_t>(id)]) {
      return;
    }
    saved->erase(id);
    if (gathered_cache.erase(id) > 0) {
      saved->erase(-1000 - id);
    }
  };
  const auto release_inputs = [&](const Node& node) {
    for (int32_t input : node.inputs) {
      release_use(input);
    }
  };

  // ---- Main interpretation loop ------------------------------------------------------------------
  // One operator evaluation, factored out so the loop below can wrap it in a
  // trace span without duplicating the dispatch.
  const auto exec_node = [&](const Node& node) {
    switch (node.kind) {
      case OpKind::kConst:
        scalar_value[static_cast<size_t>(node.id)] = node.attr;
        is_scalar[static_cast<size_t>(node.id)] = true;
        return;
      case OpKind::kInput: {
        if (node.type == GraphType::kEdge) {
          auto it = features.edge.find(node.name);
          SEASTAR_CHECK(it != features.edge.end()) << "missing edge feature '" << node.name << "'";
          (*saved)[node.id] = it->second;
        } else {
          auto it = features.vertex.find(node.name);
          SEASTAR_CHECK(it != features.vertex.end())
              << "missing vertex feature '" << node.name << "'";
          (*saved)[node.id] = it->second;
        }
        return;
      }
      case OpKind::kInputTypedSrc: {
        auto it = features.typed_vertex.find(node.name);
        SEASTAR_CHECK(it != features.typed_vertex.end())
            << "missing typed feature '" << node.name << "'";
        (*saved)[node.id] = it->second;
        return;
      }
      case OpKind::kDegree: {
        Tensor degree({num_vertices, 1});
        for (int64_t v = 0; v < num_vertices; ++v) {
          degree.at(v, 0) = static_cast<float>(node.type == GraphType::kDst
                                                   ? graph.InDegree(static_cast<int32_t>(v))
                                                   : graph.OutDegree(static_cast<int32_t>(v)));
        }
        (*saved)[node.id] = std::move(degree);
        return;
      }
      default:
        break;
    }

    if (node.type == GraphType::kParam) {
      const auto sv = [&](int32_t id) {
        SEASTAR_CHECK(is_scalar[static_cast<size_t>(id)]);
        return scalar_value[static_cast<size_t>(id)];
      };
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
      is_scalar[static_cast<size_t>(node.id)] = true;
      return;
    }

    if (IsAggregation(node.kind)) {
      if (node.kind == OpKind::kAggTypeSumThenMax) {
        (*saved)[node.id] = eval_type_sum_then_max(node);
      } else {
        (*saved)[node.id] = eval_aggregate(node);
      }
      release_inputs(node);
      return;
    }

    if (node.type == GraphType::kEdge) {
      (*saved)[node.id] = eval_edge_pointwise(node);
      release_inputs(node);
      return;
    }

    // Vertex-wise pointwise op (S- or D-typed): plain tensor kernel.
    {
      ++launches;
      const Node& in_a = gir.node(node.inputs[0]);
      const Tensor& ta = value_of(node.inputs[0]);
      const bool binary = node.inputs.size() > 1;
      const float* pb = nullptr;
      int32_t wb = 1;
      float scalar_b = 0.0f;
      int64_t stride_b = 0;
      if (binary) {
        if (is_scalar[static_cast<size_t>(node.inputs[1])]) {
          scalar_b = scalar_value[static_cast<size_t>(node.inputs[1])];
          pb = &scalar_b;
        } else {
          const Tensor& tb = value_of(node.inputs[1]);
          pb = tb.data();
          wb = gir.node(node.inputs[1]).width;
          stride_b = wb;
        }
      }
      const float* pa = ta.data();
      const int64_t stride_a = in_a.width;
      Tensor out({num_vertices, node.width});
      float* po = out.data();
      ParallelFor(num_vertices, [&](int64_t begin, int64_t end) {
        for (int64_t v = begin; v < end; ++v) {
          PointwiseApply(node.kind, node.attr, po + v * node.width, node.width,
                         pa + v * stride_a, in_a.width,
                         pb != nullptr ? pb + v * stride_b : nullptr, wb);
        }
      });
      (*saved)[node.id] = std::move(out);
      release_inputs(node);
    }
  };

  for (const Node& node : gir.nodes()) {
    // Per-op deadline poll, mirroring the Seastar executor's per-unit check.
    CheckExecutionDeadline("baseline op");
    if (fused_away[static_cast<size_t>(node.id)]) {
      continue;
    }
    // Leaves and scalar params are bookkeeping, not kernels — keep them out
    // of the trace so per-op spans correspond to launched kernels.
    const bool is_kernel = node.kind != OpKind::kConst && node.kind != OpKind::kInput &&
                           node.kind != OpKind::kInputTypedSrc && node.type != GraphType::kParam;
    if (!traced || !is_kernel) {
      exec_node(node);
      continue;
    }
    trace::AmbientSpan op_span(OpKindName(node.kind), "op");
    const uint64_t live_before = TensorAllocator::Get().live_bytes();
    const uint64_t peak_before = TensorAllocator::Get().peak_bytes();
    const int64_t launches_before = launches;
    exec_node(node);
    if (trace::Span* span = op_span.span()) {
      // Edge-wise ops and aggregations are the graph-traversal kernels; the
      // rest are plain vertex/param tensor kernels.
      if (IsAggregation(node.kind) || node.type == GraphType::kEdge) {
        span->Set(Arg::kEdges, num_edges);
      }
      auto out_it = saved->find(node.id);
      if (out_it != saved->end()) {
        span->Set(Arg::kBytesMaterialized, static_cast<int64_t>(out_it->second.nbytes()));
      }
      span->Set(Arg::kKernelLaunches, launches - launches_before);
      span->Set(Arg::kAllocDeltaBytes, static_cast<int64_t>(TensorAllocator::Get().live_bytes()) -
                                           static_cast<int64_t>(live_before));
      span->Set(Arg::kPeakDeltaBytes, static_cast<int64_t>(TensorAllocator::Get().peak_bytes()) -
                                          static_cast<int64_t>(peak_before));
    }
  }

  RunResult result;
  result.saved = saved;
  for (size_t i = 0; i < gir.outputs().size(); ++i) {
    const int32_t id = gir.outputs()[i];
    result.outputs[gir.output_names()[i]] = value_of(id);
  }

  KernelLaunchesTotal().Add(launches);
  if (trace::Span* span = run_span.span()) {
    span->Set(Arg::kKernelLaunches, launches);
    span->Set(Arg::kAllocDeltaBytes, static_cast<int64_t>(TensorAllocator::Get().live_bytes()) -
                                         static_cast<int64_t>(run_live_before));
    span->Set(Arg::kPeakDeltaBytes, static_cast<int64_t>(TensorAllocator::Get().peak_bytes()) -
                                        static_cast<int64_t>(run_peak_before));
  }
  return result;
}

}  // namespace seastar
