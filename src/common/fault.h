// Deterministic fault injection for resilience testing.
//
// Long-running training must survive allocation failures, corrupt files,
// stalled workers, and interrupted checkpoint writes. Those conditions are
// rare in healthy runs, so the recovery paths would otherwise go untested.
// FaultInjector lets tests (and the SEASTAR_FAULTS environment variable)
// arm *named sites* in production code to fail on a precisely chosen hit —
// "the 5th tensor allocation", "every checkpoint write", "graph reads with
// probability 0.3 under seed 42" — fully deterministically, so a failing
// fault-injection test replays bit-for-bit.
//
// Hot-path discipline: every instrumented site first checks enabled(), a
// single relaxed atomic load that is false in normal runs; the per-site
// bookkeeping (mutex-guarded, called from worker threads) only runs while a
// test has faults armed.
//
// Spec grammar (for SEASTAR_FAULTS or --faults=):
//   spec      := site_spec (';' site_spec)*
//   site_spec := site ':' trigger (':' trigger)*
//   trigger   := "after=" N        fail hits N+1 .. N+count (default count 1)
//              | "count=" N
//              | "p=" P            fail each hit with probability P
//              | "seed=" S         seed for the probabilistic stream
//   site      := alloc | simt_worker | ckpt_write | ckpt_read | graph_read
//              | shard_send | shard_recv | shard_combine | shard_worker
// Example: "alloc:after=100:count=2;ckpt_write:p=0.5:seed=7"
#ifndef SRC_COMMON_FAULT_H_
#define SRC_COMMON_FAULT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

#include "src/common/rng.h"

namespace seastar {

enum class FaultSite : int {
  kTensorAlloc = 0,    // TensorAllocator::Allocate -> simulated allocation failure.
  kSimtWorker,         // LaunchBlocks worker -> injected stall (latency, not failure).
  kCheckpointWrite,    // Checkpoint serialization -> truncated write, tmp left behind.
  kCheckpointRead,     // Checkpoint load -> corrupt/unreadable bytes.
  kGraphRead,          // Graph/dataset file loaders -> I/O error.
  kShardSend,          // Sharded pass 1 -> packing a halo payload fails on the owner.
  kShardRecv,          // Sharded pass 2 -> absorbing a halo payload fails on the mirrorer.
  kShardCombine,       // Sharded pass 3 -> applying a peer partial fails on the owner.
  kShardWorker,        // Sharded pass 2 -> per-shard interpreter run fails.
  kNumSites,           // Sentinel.
};

const char* FaultSiteName(FaultSite site);
std::optional<FaultSite> FaultSiteFromString(const std::string& name);

// Pipe-separated list of every valid site name ("alloc|simt_worker|...").
// Generated from the enum so error messages can never drift from it.
const std::string& FaultSiteList();

class FaultInjector {
 public:
  static FaultInjector& Get();

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // True when any site is armed. The only check on hot paths.
  bool enabled() const { return armed_sites_.load(std::memory_order_relaxed) != 0; }

  // Deterministic trigger: hits N+1 .. N+count of `site` fail.
  void Arm(FaultSite site, int64_t after_n, int64_t count = 1);

  // Probabilistic trigger: each hit fails with `probability`, drawn from a
  // dedicated stream seeded with `seed` (deterministic sequence per arm).
  void ArmProbabilistic(FaultSite site, double probability, uint64_t seed = 0x5ea57a2021ull);

  void Disarm(FaultSite site);
  void DisarmAll();

  // Records one hit of `site` and reports whether it must fail. Sites that
  // are not armed count nothing and return false.
  bool ShouldFail(FaultSite site);

  // Counters for assertions and recovery logs.
  int64_t hits(FaultSite site) const;
  int64_t injected(FaultSite site) const;

  // Parses the spec grammar above. On error returns false and, when `error`
  // is non-null, explains which piece was malformed. Valid spec arms sites
  // on top of the current state.
  bool ConfigureFromSpec(const std::string& spec, std::string* error = nullptr);

  // Applies SEASTAR_FAULTS when set (logs and ignores malformed specs).
  void ConfigureFromEnv();

 private:
  FaultInjector() = default;

  struct SiteState {
    bool armed = false;
    // Deterministic window; fail_after < 0 means "probabilistic mode".
    int64_t fail_after = -1;
    int64_t fail_count = 0;
    double probability = 0.0;
    std::optional<Rng> rng;  // Engaged in probabilistic mode.
    int64_t hits = 0;
    int64_t injected = 0;
  };

  void RecomputeArmedMask();

  mutable std::mutex mutex_;
  SiteState sites_[static_cast<int>(FaultSite::kNumSites)];
  std::atomic<uint32_t> armed_sites_{0};  // Bitmask over FaultSite.
};

// Test helper: disarms every site on scope exit so one test's faults can
// never leak into the next.
class ScopedFaultClear {
 public:
  ScopedFaultClear() = default;
  ~ScopedFaultClear() { FaultInjector::Get().DisarmAll(); }

  ScopedFaultClear(const ScopedFaultClear&) = delete;
  ScopedFaultClear& operator=(const ScopedFaultClear&) = delete;
};

}  // namespace seastar

#endif  // SRC_COMMON_FAULT_H_
