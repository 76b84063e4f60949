// Process-wide tensor allocator with live/peak byte accounting and a
// caching block pool.
//
// Every Tensor's storage is obtained here, which lets the benchmark harnesses
// reproduce the paper's peak-memory comparison (Fig. 11, Table 4): the paper
// measures GPU device memory, we measure bytes of tensor storage. A soft
// budget can be armed so that backends which over-materialize (the PyG-like
// executor on reddit-scale graphs) report "OOM" exactly as in the paper,
// without actually exhausting host RAM.
//
// Pooling (the steady-state optimization, in the spirit of PyTorch's caching
// CUDA allocator): freed blocks are kept on per-size-class free lists and
// handed back to later allocations of the same class, so a training loop
// that allocates the same tensor shapes every epoch performs ~zero malloc
// calls after the first (warm-up) epoch. Large blocks would otherwise
// round-trip through mmap/munmap each epoch and re-fault every page on first
// touch, which dominates allocation cost for feature-sized tensors.
//
// Accounting semantics are unchanged by pooling: live/peak track *requested*
// bytes of live tensors; cached (pooled) blocks are not live and are
// reported separately via pooled_bytes(). The soft budget latches only on
// live bytes, but cached blocks count toward the pressure check first: when
// live + pooled crosses the budget while live alone has not, the free lists
// are trimmed and the allocation is re-judged, so a long-running server
// whose pool fragments across size classes does not die on phantom OOM (see
// budget_trims()). Set SEASTAR_POOL=0 in the environment to disable pooling
// (e.g. when hunting use-after-free with ASan, which cannot see reuse inside
// the pool).
#ifndef SRC_TENSOR_ALLOCATOR_H_
#define SRC_TENSOR_ALLOCATOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace seastar {

// Thrown-free: allocation failure against the soft budget is recorded as a
// flag that callers poll (GNN training code checks it per epoch), because the
// os-systems style here avoids exceptions on hot paths.
class TensorAllocator {
 public:
  static TensorAllocator& Get();

  // Allocates `bytes` of float-aligned storage. Never returns nullptr
  // (hard OOM aborts); soft-budget violations only set budget_exceeded().
  void* Allocate(size_t bytes);
  void Deallocate(void* ptr, size_t bytes);

  uint64_t live_bytes() const { return live_bytes_.load(std::memory_order_relaxed); }
  uint64_t peak_bytes() const { return peak_bytes_.load(std::memory_order_relaxed); }
  // Allocation *requests* (pool hits included).
  uint64_t total_allocations() const { return total_allocs_.load(std::memory_order_relaxed); }

  // ---- Pool -----------------------------------------------------------------

  // Rounds a request up to its size class. Classes are 64 B, powers of two up
  // to 4 KiB, then 4 KiB multiples — waste is bounded and repeated shapes
  // (the steady-state training case) always map to the same class.
  static size_t SizeClassBytes(size_t bytes);

  // malloc calls that actually went to the OS (pool misses + pool disabled).
  uint64_t fresh_mallocs() const { return fresh_mallocs_.load(std::memory_order_relaxed); }
  // Requests served from / missed by the free lists.
  uint64_t pool_hits() const { return pool_hits_.load(std::memory_order_relaxed); }
  uint64_t pool_misses() const { return pool_misses_.load(std::memory_order_relaxed); }
  // Total bytes (size-class bytes) served from the pool since process start.
  uint64_t pool_reuse_bytes() const { return pool_reuse_bytes_.load(std::memory_order_relaxed); }
  // Bytes currently cached on the free lists (not live).
  uint64_t pooled_bytes() const { return pooled_bytes_.load(std::memory_order_relaxed); }
  uint64_t trims() const { return trims_.load(std::memory_order_relaxed); }
  // Trims forced by the soft budget: allocations where live + pooled crossed
  // the budget but live alone had not, so releasing the free lists (pool
  // fragmentation, not real memory pressure) resolved the breach.
  uint64_t budget_trims() const { return budget_trims_.load(std::memory_order_relaxed); }

  bool pooling_enabled() const { return pooling_enabled_.load(std::memory_order_relaxed); }
  // Tests toggle this; disabling does not release already-cached blocks
  // (call Trim() for that).
  void SetPoolingEnabled(bool enabled) {
    pooling_enabled_.store(enabled, std::memory_order_relaxed);
  }

  // Releases every cached block back to the OS and returns the bytes freed.
  // The checkpoint/recovery path calls this before snapshotting so process
  // footprint at snapshot time reflects live tensors only.
  uint64_t Trim();

  // Starts a fresh peak-measurement window: peak := live.
  void ResetPeak();

  // Arms/disarms the soft budget. 0 disarms. Arming clears budget_exceeded.
  void SetSoftBudgetBytes(uint64_t bytes);
  uint64_t soft_budget_bytes() const { return soft_budget_.load(std::memory_order_relaxed); }
  bool budget_exceeded() const { return budget_exceeded_.load(std::memory_order_relaxed); }
  void ClearBudgetExceeded() { budget_exceeded_.store(false, std::memory_order_relaxed); }

  // Set when FaultInjector fired on FaultSite::kTensorAlloc: the allocation
  // itself still succeeds (callers never see nullptr) but the failure is
  // latched here, exactly like a soft-budget breach, and handled at the next
  // epoch boundary. Distinct from budget_exceeded() so the training loop can
  // treat it as transient (rollback + retry) rather than as OOM.
  bool failure_injected() const { return failure_injected_.load(std::memory_order_relaxed); }
  void ClearInjectedFailure() { failure_injected_.store(false, std::memory_order_relaxed); }

 private:
  TensorAllocator();

  std::atomic<uint64_t> live_bytes_{0};
  std::atomic<uint64_t> peak_bytes_{0};
  std::atomic<uint64_t> total_allocs_{0};
  std::atomic<uint64_t> fresh_mallocs_{0};
  std::atomic<uint64_t> pool_hits_{0};
  std::atomic<uint64_t> pool_misses_{0};
  std::atomic<uint64_t> pool_reuse_bytes_{0};
  std::atomic<uint64_t> pooled_bytes_{0};
  std::atomic<uint64_t> trims_{0};
  std::atomic<uint64_t> budget_trims_{0};
  std::atomic<uint64_t> soft_budget_{0};
  std::atomic<bool> budget_exceeded_{false};
  std::atomic<bool> failure_injected_{false};
  std::atomic<bool> pooling_enabled_{true};

  // Free lists keyed by size class. Tensor construction happens on whichever
  // thread runs the orchestration code, and worker threads free temporaries,
  // so the lists are mutex-guarded; the lock covers a vector push/pop only.
  std::mutex pool_mutex_;
  std::unordered_map<size_t, std::vector<void*>> pool_;
};

}  // namespace seastar

#endif  // SRC_TENSOR_ALLOCATOR_H_
