#include "src/graph/partition.h"

#include <algorithm>
#include <sstream>

#include "src/common/logging.h"

namespace seastar {
namespace {

// Picks cut points so each shard keys a contiguous vertex range with roughly
// E/num_shards in-edges. Balancing by in-edges (not vertices) is what keeps
// the per-shard interpreter runtime even under skewed degree distributions.
std::vector<int64_t> BalancedCuts(const Graph& graph, int num_shards) {
  const int64_t num_vertices = graph.num_vertices();
  const int64_t num_edges = graph.num_edges();
  std::vector<int64_t> in_degree(static_cast<size_t>(num_vertices), 0);
  for (int32_t dst : graph.edge_dst()) {
    ++in_degree[static_cast<size_t>(dst)];
  }
  std::vector<int64_t> cuts(static_cast<size_t>(num_shards) + 1, num_vertices);
  cuts[0] = 0;
  int64_t vertex = 0;
  int64_t cumulative = 0;
  for (int shard = 1; shard < num_shards; ++shard) {
    const int64_t target = num_edges * shard / num_shards;
    while (vertex < num_vertices && cumulative < target) {
      cumulative += in_degree[static_cast<size_t>(vertex)];
      ++vertex;
    }
    cuts[static_cast<size_t>(shard)] = vertex;
  }
  return cuts;
}

}  // namespace

int ShardedGraph::OwnerOf(int32_t vertex) const {
  SEASTAR_CHECK_GE(vertex, 0);
  SEASTAR_CHECK_LT(vertex, num_vertices);
  // cuts is non-decreasing with cuts[0] = 0: the owner is the last shard
  // whose range starts at or before `vertex`.
  auto it = std::upper_bound(cuts.begin(), cuts.end(), static_cast<int64_t>(vertex));
  return static_cast<int>(it - cuts.begin()) - 1;
}

int64_t ShardedGraph::TotalMirrors() const {
  int64_t total = 0;
  for (const GraphShard& shard : shards) {
    total += static_cast<int64_t>(shard.halo_globals.size());
  }
  return total;
}

std::string ShardedGraph::DebugString() const {
  std::ostringstream os;
  os << "ShardedGraph{shards=" << num_shards << " vertices=" << num_vertices
     << " edges=" << num_edges << " mirrors=" << TotalMirrors() << "\n";
  for (const GraphShard& shard : shards) {
    os << "  shard " << shard.shard_id << ": owned=[" << shard.owned_begin << ", "
       << shard.owned_end << ") edges=" << shard.local.num_edges()
       << " halo=" << shard.halo_globals.size() << " send_peers=" << shard.send_plans.size()
       << " recv_peers=" << shard.recv_plans.size() << "\n";
  }
  os << "}";
  return os.str();
}

ShardedGraph Partitioner::Partition(const Graph& graph, const PartitionOptions& options) {
  const int num_shards = options.num_shards;
  SEASTAR_CHECK_GE(num_shards, 1) << "Partitioner: need at least one shard";
  const int64_t num_vertices = graph.num_vertices();
  const int64_t num_edges = graph.num_edges();

  ShardedGraph sharded;
  sharded.num_shards = num_shards;
  sharded.num_vertices = num_vertices;
  sharded.num_edges = num_edges;
  sharded.num_edge_types = graph.num_edge_types();
  sharded.cuts = BalancedCuts(graph, num_shards);
  sharded.shards.resize(static_cast<size_t>(num_shards));

  const std::vector<int32_t>& src = graph.edge_src();
  const std::vector<int32_t>& dst = graph.edge_dst();
  const std::vector<int32_t>& types = graph.edge_type();
  const bool has_types = !types.empty();

  for (int s = 0; s < num_shards; ++s) {
    GraphShard& shard = sharded.shards[static_cast<size_t>(s)];
    shard.shard_id = s;
    shard.owned_begin = sharded.cuts[static_cast<size_t>(s)];
    shard.owned_end = sharded.cuts[static_cast<size_t>(s) + 1];
  }

  // Pass 1: count edges per shard and collect each shard's halo set — the
  // out-of-range sources of its edges. A self-loop's source equals its
  // (owned) destination, so it never enters the halo set; isolated vertices
  // appear in no edge at all and contribute nothing here.
  std::vector<int64_t> edges_per_shard(static_cast<size_t>(num_shards), 0);
  std::vector<std::vector<int32_t>> halo(static_cast<size_t>(num_shards));
  for (int64_t e = 0; e < num_edges; ++e) {
    const int s = sharded.OwnerOf(dst[static_cast<size_t>(e)]);
    ++edges_per_shard[static_cast<size_t>(s)];
    const int32_t u = src[static_cast<size_t>(e)];
    const GraphShard& shard = sharded.shards[static_cast<size_t>(s)];
    if (u < shard.owned_begin || u >= shard.owned_end) {
      halo[static_cast<size_t>(s)].push_back(u);
    }
  }
  for (int s = 0; s < num_shards; ++s) {
    std::vector<int32_t>& h = halo[static_cast<size_t>(s)];
    std::sort(h.begin(), h.end());
    h.erase(std::unique(h.begin(), h.end()), h.end());
    sharded.shards[static_cast<size_t>(s)].halo_globals = std::move(h);
  }

  // Pass 2: build each shard's local COO in ascending global edge id order.
  struct LocalCoo {
    std::vector<int32_t> src, dst, types;
  };
  std::vector<LocalCoo> coo(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    const size_t count = static_cast<size_t>(edges_per_shard[static_cast<size_t>(s)]);
    coo[static_cast<size_t>(s)].src.reserve(count);
    coo[static_cast<size_t>(s)].dst.reserve(count);
    sharded.shards[static_cast<size_t>(s)].edge_global.reserve(count);
    if (has_types) {
      coo[static_cast<size_t>(s)].types.reserve(count);
    }
  }
  for (int64_t e = 0; e < num_edges; ++e) {
    const int32_t v = dst[static_cast<size_t>(e)];
    const int s = sharded.OwnerOf(v);
    GraphShard& shard = sharded.shards[static_cast<size_t>(s)];
    const int32_t u = src[static_cast<size_t>(e)];
    int32_t local_src;
    if (u >= shard.owned_begin && u < shard.owned_end) {
      local_src = static_cast<int32_t>(u - shard.owned_begin);
    } else {
      const auto it =
          std::lower_bound(shard.halo_globals.begin(), shard.halo_globals.end(), u);
      SEASTAR_CHECK(it != shard.halo_globals.end() && *it == u);
      local_src = static_cast<int32_t>(shard.owned_count() +
                                       (it - shard.halo_globals.begin()));
    }
    LocalCoo& c = coo[static_cast<size_t>(s)];
    c.src.push_back(local_src);
    c.dst.push_back(static_cast<int32_t>(v - shard.owned_begin));
    if (has_types) {
      c.types.push_back(types[static_cast<size_t>(e)]);
    }
    shard.edge_global.push_back(static_cast<int32_t>(e));
  }

  GraphOptions local_options;
  local_options.sort_by_degree = graph.sorted_by_degree();
  for (int s = 0; s < num_shards; ++s) {
    GraphShard& shard = sharded.shards[static_cast<size_t>(s)];
    LocalCoo& c = coo[static_cast<size_t>(s)];
    shard.local = Graph::FromCoo(shard.local_count(), std::move(c.src), std::move(c.dst),
                                 std::move(c.types), graph.num_edge_types(), local_options);
  }

  // Exchange plans: a shard's (sorted) halo globals group contiguously by
  // owner, which yields the aligned owner/mirror segment pair directly. Only
  // non-empty groups produce segments, so a shard pair with no shared
  // boundary emits nothing — the "no zero-length halo segments" invariant
  // the runtime's packers rely on.
  for (int s = 0; s < num_shards; ++s) {
    GraphShard& mirror = sharded.shards[static_cast<size_t>(s)];
    size_t i = 0;
    while (i < mirror.halo_globals.size()) {
      const int owner = sharded.OwnerOf(mirror.halo_globals[i]);
      SEASTAR_CHECK_NE(owner, s) << "Partitioner: owned vertex in halo set";
      GraphShard& master = sharded.shards[static_cast<size_t>(owner)];
      HaloSegment recv;
      recv.peer = owner;
      recv.peer_index = static_cast<int>(master.send_plans.size());
      HaloSegment send;
      send.peer = s;
      send.peer_index = static_cast<int>(mirror.recv_plans.size());
      while (i < mirror.halo_globals.size() &&
             sharded.OwnerOf(mirror.halo_globals[i]) == owner) {
        const int32_t g = mirror.halo_globals[i];
        recv.local_rows.push_back(
            static_cast<int32_t>(mirror.owned_count() + static_cast<int64_t>(i)));
        send.local_rows.push_back(static_cast<int32_t>(g - master.owned_begin));
        ++i;
      }
      SEASTAR_CHECK(!recv.local_rows.empty());
      SEASTAR_CHECK_EQ(recv.local_rows.size(), send.local_rows.size());
      mirror.recv_plans.push_back(std::move(recv));
      master.send_plans.push_back(std::move(send));
    }
  }

  return sharded;
}

}  // namespace seastar
