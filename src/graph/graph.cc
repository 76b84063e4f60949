#include "src/graph/graph.h"

#include <algorithm>
#include <sstream>

#include "src/common/logging.h"

namespace seastar {

Graph Graph::FromCoo(int64_t num_vertices, std::vector<int32_t> src, std::vector<int32_t> dst,
                     std::vector<int32_t> edge_types, int32_t num_edge_types,
                     const GraphOptions& options) {
  SEASTAR_CHECK_EQ(src.size(), dst.size());
  SEASTAR_CHECK_GE(num_edge_types, 1);
  if (!edge_types.empty()) {
    SEASTAR_CHECK_EQ(edge_types.size(), src.size());
    for (int32_t t : edge_types) {
      SEASTAR_CHECK_GE(t, 0);
      SEASTAR_CHECK_LT(t, num_edge_types);
    }
  }

  Graph g;
  g.num_vertices_ = num_vertices;
  g.num_edges_ = static_cast<int64_t>(src.size());
  g.num_edge_types_ = num_edge_types;
  g.sorted_by_degree_ = options.sort_by_degree;
  g.edge_src_ = std::move(src);
  g.edge_dst_ = std::move(dst);
  g.edge_type_ = std::move(edge_types);

  CsrBuildOptions csr_options;
  csr_options.sort_by_degree = options.sort_by_degree;
  csr_options.sort_slots_by_edge_type = g.num_edge_types_ > 1;
  g.in_csr_ = BuildCsr(num_vertices, g.edge_dst_, g.edge_src_, g.edge_type_, csr_options);
  g.out_csr_ = BuildCsr(num_vertices, g.edge_src_, g.edge_dst_, g.edge_type_, csr_options);
  return g;
}

int64_t Graph::MaxInDegree() const {
  // With degree sorting, position 0 holds the max-degree vertex; otherwise scan.
  if (num_vertices_ == 0) {
    return 0;
  }
  if (sorted_by_degree_) {
    return in_csr_.DegreeAtPosition(0);
  }
  int64_t best = 0;
  for (int64_t k = 0; k < num_vertices_; ++k) {
    best = std::max(best, in_csr_.DegreeAtPosition(k));
  }
  return best;
}

const Tensor& Graph::InDegreeTensor() const {
  DegreeCache& cache = *degree_cache_;
  std::lock_guard<std::mutex> lock(cache.mutex);
  if (!cache.in_degree.defined()) {
    Tensor t({num_vertices_, 1});
    for (int64_t v = 0; v < num_vertices_; ++v) {
      t.at(v, 0) = static_cast<float>(InDegree(static_cast<int32_t>(v)));
    }
    cache.in_degree = std::move(t);
  }
  return cache.in_degree;
}

const Tensor& Graph::OutDegreeTensor() const {
  DegreeCache& cache = *degree_cache_;
  std::lock_guard<std::mutex> lock(cache.mutex);
  if (!cache.out_degree.defined()) {
    Tensor t({num_vertices_, 1});
    for (int64_t v = 0; v < num_vertices_; ++v) {
      t.at(v, 0) = static_cast<float>(OutDegree(static_cast<int32_t>(v)));
    }
    cache.out_degree = std::move(t);
  }
  return cache.out_degree;
}

double Graph::AverageInDegree() const {
  return num_vertices_ > 0 ? static_cast<double>(num_edges_) / static_cast<double>(num_vertices_)
                           : 0.0;
}

std::string Graph::DebugString() const {
  std::ostringstream os;
  os << "Graph(|V|=" << num_vertices_ << ", |E|=" << num_edges_
     << ", types=" << num_edge_types_ << ", avg_in_deg=" << AverageInDegree()
     << ", max_in_deg=" << MaxInDegree() << ")";
  return os.str();
}

}  // namespace seastar
