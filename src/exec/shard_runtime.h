// Owner/mirror sharded execution runtime.
//
// ShardRuntime is an Executor that runs the *unchanged* fused-unit executor
// (SeastarExecutor) once per shard, on shard-local graphs
// produced by the Partitioner, stitched back together by a halo exchange in
// three barrier-separated passes. Each shard posts a pass's payloads into
// its own outbox; peers read them only after that pass has joined:
//
//   1. Feature exchange (owner -> mirror). Each shard packs, per mirroring
//      peer, the owned rows of every vertex input the peer's halo needs
//      into its outbox. Owned rows are a single contiguous copy (the
//      partition is a vertex-range partition).
//   2. Local run. Each shard scatters the payloads addressed to it into
//      the halo slots of its local input tensors, then its SeastarExecutor
//      runs the GIR on the local graph on a dedicated thread-pool slice
//      (ThreadPool::Current()), so shards never contend on the shared
//      process pool and each works a cache-sized slice of the tensors.
//   3. Combine (mirror -> master). D-typed outputs are exact shard-locally
//      (every in-edge of an owned destination is local) and are written
//      straight into the owned rows of the global output; E-typed outputs
//      scatter through the local->global edge id map. S-typed (out-edge)
//      aggregation outputs are only *partial* — a source's out-edges span
//      shards — so in pass 2 each shard posts its halo rows' partial sums,
//      and in pass 3 each owner combines: own partial first, then peer
//      partials in ascending shard id order. The fixed order makes the
//      float summation bit-reproducible run to run.
//
// Programs whose GIR reads an S-typed aggregate internally (a non-output
// consumer would observe a partial sum) or takes out-degrees cannot be
// sharded this way; Execute detects this (CheckShardable) and falls back to
// a single full-graph run on the inner executor, counted in
// seastar_shard_fallbacks_total.
#ifndef SRC_EXEC_SHARD_RUNTIME_H_
#define SRC_EXEC_SHARD_RUNTIME_H_

#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/fault.h"
#include "src/common/status.h"
#include "src/exec/executor.h"
#include "src/exec/seastar_executor.h"
#include "src/parallel/thread_pool.h"

namespace seastar {

// A transient failure inside one shard of a sharded execution — today only
// produced by the injected fault sites (shard_send/shard_recv/shard_combine/
// shard_worker), later by real partial failures (a lost remote worker). The
// recovery ladder (ExecuteWithRecovery in executor.cc) treats it like any
// other transient std::exception: retry sharded once, then fall back to the
// whole-graph SeastarExecutor. Deadline aborts are deliberately NOT a ShardFault.
class ShardFault : public std::runtime_error {
 public:
  ShardFault(FaultSite site, int shard_id)
      : std::runtime_error(std::string("injected shard fault at ") + FaultSiteName(site) +
                           " (shard " + std::to_string(shard_id) + ")"),
        site_(site),
        shard_id_(shard_id) {}

  FaultSite site() const { return site_; }
  int shard_id() const { return shard_id_; }

 private:
  FaultSite site_;
  int shard_id_;
};

struct ShardRuntimeOptions {
  int num_shards = 2;
};

class ShardRuntime : public Executor {
 public:
  explicit ShardRuntime(ShardRuntimeOptions options = {});
  ~ShardRuntime() override;

  ShardRuntime(const ShardRuntime&) = delete;
  ShardRuntime& operator=(const ShardRuntime&) = delete;

  // Partitions `graph` once; Execute reuses the decomposition through the
  // view. Execute requires a view prepared here (or by a runtime with the
  // same shard count) and CHECK-fails on any other.
  GraphView PrepareView(const Graph& graph) const override;

  RunResult Execute(const GirGraph& gir, const GraphView& view, const FeatureMap& features,
                    const RunContext& ctx = {}) const override;

  const char* name() const override { return "sharded"; }

  // The recovery ladder's last rung: the same whole-graph executor the
  // CheckShardable fallback path uses, run over the plain full graph.
  const Executor* recovery_fallback() const override { return &inner_; }

  const ShardRuntimeOptions& options() const { return options_; }

  // Why `gir` cannot run sharded (Ok = it can). Public so tests can pin the
  // shardability rules and callers can probe before choosing a strategy.
  static Status CheckShardable(const GirGraph& gir);

 private:
  RunResult ExecuteSharded(const GirGraph& gir, const Graph& graph,
                           const ShardedGraph& sharded, const FeatureMap& features) const;
  // Lazily builds the per-shard pool slices (first sharded Execute).
  ThreadPool* SlicePool(int shard) const;

  ShardRuntimeOptions options_;
  SeastarExecutor inner_;

  mutable std::mutex pools_mutex_;
  mutable std::vector<std::unique_ptr<ThreadPool>> slice_pools_;
};

}  // namespace seastar

#endif  // SRC_EXEC_SHARD_RUNTIME_H_
