// Owner/mirror graph partitioning for the sharded execution runtime (the
// partition-parallel direction of GraphTensor and the LA3-style owner/mirror
// vertex model).
//
// The partitioner cuts the vertex id space into `num_shards` contiguous
// ranges, balanced by in-edge count (a shard's work in the vertex-parallel
// interpreter is proportional to the in-edges of the vertices it keys).
// Every edge is assigned to the shard that *owns its destination*, so each
// shard holds all in-edges of its owned vertices and the forward A:D
// aggregations are exact shard-locally. Source endpoints owned elsewhere
// become *mirrors* (halo vertices): their feature rows are exchanged in
// before a run, and the partial A:S (out-edge) sums they accumulate during
// backward are exchanged back to their owner — partial aggregation on
// mirrors, combine on masters.
//
// A shard's local id space is compact:
//   [0, owned_count)              — owned vertices, local = global - begin;
//   [owned_count, local_count)    — halo vertices, sorted by ascending
//                                   global id (determinism: every shard and
//                                   every run derives identical halo order).
// Local edges keep their relative global order; `edge_global` maps a local
// edge id back to the global edge id that global [E, w] feature tensors and
// edge outputs are indexed by.
//
// Exchange plans are precomputed per (owner, mirrorer) pair and shared by
// both directions of the protocol:
//   shards[t].send_plans entry for peer s — owned local ids in t whose
//     globals s mirrors (rows t gathers when feeding s's halo, and the rows
//     t adds into when s returns partial sums);
//   shards[s].recv_plans entry for peer t — s's halo local ids for the same
//     globals, in the same order.
// Each segment's peer_index is its partner's position in the peer's plan
// list, so either side reaches the other in O(1). Both lists are sorted by
// peer.
// Plans exist only for non-empty segments: no zero-length halo segment is
// ever emitted (empty shards, isolated vertices and self-loops simply
// produce no plan).
#ifndef SRC_GRAPH_PARTITION_H_
#define SRC_GRAPH_PARTITION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/graph/graph.h"

namespace seastar {

struct PartitionOptions {
  int num_shards = 1;
};

// One aligned (owner, mirrorer) exchange segment. The owner-side and
// mirrorer-side copies list the same vertices in the same (ascending global
// id) order, in their respective local id spaces.
struct HaloSegment {
  int peer = -1;                     // The shard on the other side.
  int peer_index = -1;               // This segment's partner in the peer's plans.
  std::vector<int32_t> local_rows;   // Local vertex ids on *this* side.
};

struct GraphShard {
  int shard_id = 0;
  int64_t owned_begin = 0;  // Global vertex range [owned_begin, owned_end).
  int64_t owned_end = 0;
  // Halo vertices' global ids, ascending; halo local id = owned + index.
  std::vector<int32_t> halo_globals;
  // The shard-local graph over owned + halo vertices: all global edges whose
  // destination is owned here, with both CSRs, degree sorting and edge-type
  // slots inherited from the parent graph.
  Graph local;
  // Local edge id -> global edge id (ascending; local order preserves
  // global edge order).
  std::vector<int32_t> edge_global;
  // Owner side: rows this shard gathers/combines per mirroring peer.
  std::vector<HaloSegment> send_plans;
  // Mirror side: halo rows this shard fills/returns per owning peer.
  std::vector<HaloSegment> recv_plans;

  int64_t owned_count() const { return owned_end - owned_begin; }
  int64_t local_count() const {
    return owned_count() + static_cast<int64_t>(halo_globals.size());
  }
};

struct ShardedGraph {
  int num_shards = 1;
  int64_t num_vertices = 0;
  int64_t num_edges = 0;
  int32_t num_edge_types = 1;
  std::vector<GraphShard> shards;
  // cuts[s] = first global vertex of shard s; cuts[num_shards] = N.
  std::vector<int64_t> cuts;

  int OwnerOf(int32_t vertex) const;
  // Total mirrored vertices across shards (each mirror counted once per
  // shard that holds it) — the replication cost of the partition.
  int64_t TotalMirrors() const;
  std::string DebugString() const;
};

class Partitioner {
 public:
  // Partitions `graph` into vertex-range shards. Handles every degenerate
  // shape: empty graphs, empty shards (num_shards > num_vertices), isolated
  // vertices (owned, zero local edges) and self-loops (always shard-local,
  // never mirrored). Dies on num_shards < 1.
  static ShardedGraph Partition(const Graph& graph, const PartitionOptions& options);
};

}  // namespace seastar

#endif  // SRC_GRAPH_PARTITION_H_
