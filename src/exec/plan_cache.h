// Process-wide cache of CompiledPrograms, keyed by GIR content fingerprint
// and the fusion options that shaped the plan.
//
// SeastarExecutor instances are throwaway (the backend constructs one per
// call), so the cache must outlive them: it is a singleton, like the tensor
// allocator. Keying by GirGraph::Fingerprint() rather than object identity
// means a VertexProgram's forward and backward GIRs are planned and
// register-compiled exactly once per process no matter how many epochs run,
// and a rebuilt-but-identical GIR still hits.
//
// Invalidation rules:
//   * options change  -> enable_fusion, the executor's only option, is
//     part of the key.
//   * graph change    -> compilation never reads the graph; the per-graph
//     state is keyed by graph properties (the tile plans, memoized per
//     (unit, V, E) inside the CompiledProgram) or cached on the Graph
//     object itself (degree tensors).
//   * GIR change      -> different fingerprint, different entry.
// Clear() drops everything (tests use it to get deterministic miss counts).
//
// Compilation is single-flight per key: concurrent first requests for one
// GIR (pool workers, shard workers) wait on the one compile in flight, so a
// new GIR counts exactly one miss however many threads race on it.
#ifndef SRC_EXEC_PLAN_CACHE_H_
#define SRC_EXEC_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "src/exec/compiled_program.h"
#include "src/gir/fusion.h"
#include "src/gir/ir.h"

namespace seastar {

class PlanCache {
 public:
  static PlanCache& Get();

  // Returns the cached program for (gir fingerprint, options), compiling on
  // first sight. `cache_hit`, if non-null, reports whether this call was
  // served from the cache (a call that waited on another thread's compile
  // was). A compile that throws leaves no entry behind: the next call
  // retries.
  std::shared_ptr<const CompiledProgram> GetOrCompile(const GirGraph& gir,
                                                      const FusionOptions& options,
                                                      bool* cache_hit = nullptr);

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  size_t size() const;
  void Clear();

 private:
  PlanCache();  // Registers pull-style metrics callbacks for the singleton.

  // A process runs a handful of distinct GIRs (a few per model layer); the
  // bound only guards against a pathological caller compiling unbounded
  // fresh GIRs. Eviction is wholesale — LRU bookkeeping is not worth it for
  // a cache that is effectively never full.
  static constexpr size_t kMaxEntries = 256;

  mutable std::mutex mutex_;
  using Key = std::pair<uint64_t, bool>;
  using Entry = std::shared_future<std::shared_ptr<const CompiledProgram>>;
  std::map<Key, Entry> entries_;  // Ready, or compiling on one thread.
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace seastar

#endif  // SRC_EXEC_PLAN_CACHE_H_
