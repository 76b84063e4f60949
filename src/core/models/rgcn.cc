#include "src/core/models/rgcn.h"

#include "src/common/logging.h"
#include "src/core/executor_factory.h"
#include "src/tensor/ops.h"

namespace seastar {

const char* RgcnModeName(RgcnMode mode) {
  switch (mode) {
    case RgcnMode::kSeastar:
      return "Seastar";
    case RgcnMode::kDglBmm:
      return "DGL-bmm";
    case RgcnMode::kPygBmm:
      return "PyG-bmm";
    case RgcnMode::kDglSequential:
      return "DGL";
    case RgcnMode::kPygSequential:
      return "PyG";
  }
  return "?";
}

namespace {

bool IsSequential(RgcnMode mode) {
  return mode == RgcnMode::kDglSequential || mode == RgcnMode::kPygSequential;
}

// Each Table-3 mode maps onto one of the three whole-graph executors; the
// mode only additionally decides batched-vs-sequential kernel structure.
std::shared_ptr<const Executor> ExecutorFor(RgcnMode mode) {
  const char* spec = "seastar";
  switch (mode) {
    case RgcnMode::kSeastar:
      spec = "seastar";
      break;
    case RgcnMode::kDglBmm:
    case RgcnMode::kDglSequential:
      spec = "dgl";
      break;
    case RgcnMode::kPygBmm:
    case RgcnMode::kPygSequential:
      spec = "pyg";
      break;
  }
  StatusOr<std::unique_ptr<Executor>> executor = ExecutorFactory::Create(spec);
  SEASTAR_CHECK(executor.has_value()) << executor.status().ToString();
  return std::move(*executor);
}

}  // namespace

Rgcn::Rgcn(const Dataset& data, const RgcnConfig& config)
    : data_(data), config_(config), rng_(config.seed) {
  const Graph& graph = data_.graph;
  const int32_t num_relations = graph.num_edge_types();
  SEASTAR_CHECK_GT(num_relations, 1) << "R-GCN expects a heterogeneous dataset";

  embedding_ = Embedding(graph.num_vertices(), config_.hidden_dim, rng_);

  // Per-edge normalization 1 / c_{dst(e), type(e)}.
  {
    std::vector<int32_t> type_count(
        static_cast<size_t>(graph.num_vertices()) * static_cast<size_t>(num_relations), 0);
    for (int64_t e = 0; e < graph.num_edges(); ++e) {
      const int64_t key = static_cast<int64_t>(graph.edge_dst()[static_cast<size_t>(e)]) *
                              num_relations +
                          graph.edge_type()[static_cast<size_t>(e)];
      ++type_count[static_cast<size_t>(key)];
    }
    Tensor norm({graph.num_edges(), 1});
    for (int64_t e = 0; e < graph.num_edges(); ++e) {
      const int64_t key = static_cast<int64_t>(graph.edge_dst()[static_cast<size_t>(e)]) *
                              num_relations +
                          graph.edge_type()[static_cast<size_t>(e)];
      norm.at(e, 0) = 1.0f / static_cast<float>(type_count[static_cast<size_t>(key)]);
    }
    edge_norm_ = Var::Leaf(std::move(norm), /*requires_grad=*/false);
  }

  // Sequential modes need one homogeneous subgraph per relation.
  if (IsSequential(config_.mode)) {
    relation_subgraphs_.reserve(static_cast<size_t>(num_relations));
    relation_edge_norms_.reserve(static_cast<size_t>(num_relations));
    for (int32_t r = 0; r < num_relations; ++r) {
      std::vector<int32_t> src;
      std::vector<int32_t> dst;
      std::vector<float> norms;
      for (int64_t e = 0; e < graph.num_edges(); ++e) {
        if (graph.edge_type()[static_cast<size_t>(e)] != r) {
          continue;
        }
        src.push_back(graph.edge_src()[static_cast<size_t>(e)]);
        dst.push_back(graph.edge_dst()[static_cast<size_t>(e)]);
        norms.push_back(edge_norm_.value().at(e, 0));
      }
      const int64_t num_sub_edges = static_cast<int64_t>(src.size());
      relation_subgraphs_.push_back(
          Graph::FromCoo(graph.num_vertices(), std::move(src), std::move(dst)));
      relation_edge_norms_.push_back(
          Var::Leaf(Tensor({num_sub_edges, 1}, std::move(norms)), /*requires_grad=*/false));
    }
  }

  // One executor shared by every session; subgraph sessions are created only
  // after relation_subgraphs_ stops growing (sessions hold Graph pointers).
  std::shared_ptr<const Executor> executor = ExecutorFor(config_.mode);
  for (const Graph& subgraph : relation_subgraphs_) {
    relation_sessions_.push_back(MakeSession(executor, subgraph));
  }
  session_ = MakeSession(std::move(executor), data_.graph);

  int64_t in_dim = config_.hidden_dim;
  for (int layer_index = 0; layer_index < config_.num_layers; ++layer_index) {
    const bool last = layer_index == config_.num_layers - 1;
    const int64_t out_dim = last ? data_.spec.num_classes : config_.hidden_dim;

    Layer layer;
    for (int32_t r = 0; r < num_relations; ++r) {
      layer.relation_weights.push_back(
          Var::Leaf(ops::XavierUniform(in_dim, out_dim, rng_), /*requires_grad=*/true));
    }
    layer.self_weight =
        Var::Leaf(ops::XavierUniform(in_dim, out_dim, rng_), /*requires_grad=*/true);
    layer.bias = Var::Leaf(Tensor::Zeros({out_dim}), /*requires_grad=*/true);

    {
      // Batched modes: one typed kernel over all relations.
      //   sum([wh[type(e), u] * e.norm for (u, e) in v.inedges])
      GirBuilder b;
      b.MarkOutput(
          AggSum(b.TypedSrc("wh", static_cast<int32_t>(out_dim)) * b.Edge("norm", 1)), "out");
      layer.typed_program = VertexProgram::Compile(std::move(b));
    }
    {
      // Sequential modes: a homogeneous kernel run once per relation.
      GirBuilder b;
      b.MarkOutput(AggSum(b.Src("h", static_cast<int32_t>(out_dim)) * b.Edge("norm", 1)),
                   "out");
      layer.per_relation_program = VertexProgram::Compile(std::move(b));
    }

    layers_.push_back(std::move(layer));
    in_dim = out_dim;
  }
}

Var Rgcn::ForwardLayer(const Layer& layer, const Var& h, bool last) {
  Var aggregated;
  if (IsSequential(config_.mode)) {
    // One dense GEMM + one message-passing kernel per relation, results
    // accumulated — DGL/PyG's native heterogeneous path.
    for (size_t r = 0; r < layer.relation_weights.size(); ++r) {
      if (relation_subgraphs_[r].num_edges() == 0) {
        continue;
      }
      Var h_r = ag::Matmul(h, layer.relation_weights[r]);
      Var out_r = layer.per_relation_program.Run(
          {.vertex = {{"h", h_r}}, .edge = {{"norm", relation_edge_norms_[r]}}},
          relation_sessions_[r]);
      aggregated = aggregated.defined() ? ag::Add(aggregated, out_r) : out_r;
    }
  } else {
    Var stack = StackedRelationMatmul(h, layer.relation_weights);  // [R, N, out]
    aggregated = layer.typed_program.Run(
        {.edge = {{"norm", edge_norm_}}, .typed_vertex = {{"wh", stack}}}, session());
  }
  Var out = ag::Add(aggregated, ag::Matmul(h, layer.self_weight));
  out = ag::AddRowBroadcast(out, layer.bias);
  return last ? out : ag::Relu(out);
}

Var Rgcn::Forward(bool /*training*/) {
  Var h = embedding_.Full();
  for (size_t layer_index = 0; layer_index < layers_.size(); ++layer_index) {
    h = ForwardLayer(layers_[layer_index], h, layer_index + 1 == layers_.size());
  }
  return h;
}

std::vector<Var> Rgcn::Parameters() const {
  std::vector<Var> params = embedding_.Parameters();
  for (const Layer& layer : layers_) {
    for (const Var& w : layer.relation_weights) {
      params.push_back(w);
    }
    params.push_back(layer.self_weight);
    params.push_back(layer.bias);
  }
  return params;
}

}  // namespace seastar
