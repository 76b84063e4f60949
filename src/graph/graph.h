// The Graph object shared by every executor: COO edge list (the edge-id
// ordering that feature tensors are indexed by) plus the in-CSR used by the
// forward pass and the reverse CSR used by the backward pass (paper §6.1,
// §6.3.4). Heterogeneous graphs carry a per-edge type array and type-sorted
// CSR slots (§6.3.5).
#ifndef SRC_GRAPH_GRAPH_H_
#define SRC_GRAPH_GRAPH_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/graph/csr.h"
#include "src/tensor/tensor.h"

namespace seastar {

struct GraphOptions {
  bool sort_by_degree = true;  // Paper default; off for ablations.
};

class Graph {
 public:
  Graph() = default;

  // Builds from a COO edge list (directed edges src[e] -> dst[e]).
  // `edge_types` may be empty (homogeneous) or have one entry per edge in
  // [0, num_edge_types).
  static Graph FromCoo(int64_t num_vertices, std::vector<int32_t> src, std::vector<int32_t> dst,
                       std::vector<int32_t> edge_types = {}, int32_t num_edge_types = 1,
                       const GraphOptions& options = {});

  int64_t num_vertices() const { return num_vertices_; }
  int64_t num_edges() const { return num_edges_; }
  int32_t num_edge_types() const { return num_edge_types_; }
  bool is_heterogeneous() const { return num_edge_types_ > 1; }
  bool sorted_by_degree() const { return sorted_by_degree_; }

  const std::vector<int32_t>& edge_src() const { return edge_src_; }
  const std::vector<int32_t>& edge_dst() const { return edge_dst_; }
  const std::vector<int32_t>& edge_type() const { return edge_type_; }

  // Aggregation over in-neighbors (forward pass): vertices keyed by dst.
  const Csr& in_csr() const { return in_csr_; }
  // Aggregation over out-neighbors (backward pass): vertices keyed by src.
  const Csr& out_csr() const { return out_csr_; }

  // In-degree / out-degree of an original vertex id.
  int64_t InDegree(int32_t v) const { return in_csr_.DegreeOfVertex(v); }
  int64_t OutDegree(int32_t v) const { return out_csr_.DegreeOfVertex(v); }

  // Highest in-degree in the graph (load-skew statistics).
  int64_t MaxInDegree() const;
  double AverageInDegree() const;

  // Degrees as [num_vertices, 1] tensors (what kDegree leaves and AggMean
  // consume). Built lazily on first use and cached for the lifetime of the
  // graph — the graph is immutable after FromCoo, so the cache never goes
  // stale, and copies of the Graph share it.
  const Tensor& InDegreeTensor() const;
  const Tensor& OutDegreeTensor() const;

  std::string DebugString() const;

 private:
  int64_t num_vertices_ = 0;
  int64_t num_edges_ = 0;
  int32_t num_edge_types_ = 1;
  bool sorted_by_degree_ = true;
  std::vector<int32_t> edge_src_;
  std::vector<int32_t> edge_dst_;
  std::vector<int32_t> edge_type_;
  Csr in_csr_;
  Csr out_csr_;

  // Lazily-built degree tensors. Kept behind a shared_ptr so Graph stays
  // copyable (std::mutex is not) and all copies see one cache.
  struct DegreeCache {
    std::mutex mutex;
    Tensor in_degree;
    Tensor out_degree;
  };
  std::shared_ptr<DegreeCache> degree_cache_ = std::make_shared<DegreeCache>();
};

}  // namespace seastar

#endif  // SRC_GRAPH_GRAPH_H_
