// Hardened inference server over trained GNN models, one tenant or many.
//
// The pipeline, per docs/INTERNALS.md §11 and §16:
//
//   Submit -> [per-tenant quota] -> [bounded admission queue] -> [micro-batcher]
//                 |  over cap           |  full: shed            weighted-fair
//                 v                     v                        leader pick
//            kResourceExhausted    kResourceExhausted                |
//                                                                    v
//                                              execute against the entry each
//                                              request *pinned at admission*
//                                              (RCU hot-swap), retry w/ backoff,
//                                              per-tenant circuit breaker ->
//                                              per-tenant degraded LKG cache
//
// One serving thread owns execution: it applies staged weight swaps between
// batches, forms batches, runs the forward under the batch's deadline
// (ScopedDeadline; the executors poll it at unit boundaries and abort
// expired work), retries transient faults with exponential backoff, asks the
// owning tenant's circuit breaker before every batch, and fulfills each
// request's promise. Clients only touch the queue, so client threads never
// contend on model state.
//
// Tenancy: a ModelRegistry holds the (model, graph, version) entries and
// does every weight load; each tenant names the model id it is served by,
// carries its own admission quota and fair-share weight (enforced in
// AdmissionQueue), its own circuit breaker and last-known-good cache, and
// its own accounting. A single-tenant server is the same code over a
// one-entry registry and one default tenant. The identity
//   submitted == served + degraded + shed + expired + failed
// holds per tenant; each outcome is counted once, on its tenant, and the
// global stats() are the sum over tenants plus the requests no tenant owns.
//
// Hot swap (zero downtime): RequestHotSwap stages version N+1 on the calling
// thread (checkpoint load + weight copy; serving continues unaffected), then
// the serving thread warms it with one forward — all plans come from the
// process-wide PlanCache and all tensors from the allocator pool, so a swap
// of the same architecture compiles nothing — seeds the affected tenants'
// LKG caches from the warm logits, atomically publishes the new entry, and
// pokes those tenants' breakers so an OPEN breaker probes the new weights
// immediately. Requests admitted before the flip pinned the old entry and
// are served by it; the old generation retires only after the last such
// request drains.
//
// Warm-path guarantees inherited from PR 3: after the first forward, every
// plan comes from the PlanCache and every tensor from the allocator pool —
// a steady-state request performs zero fresh mallocs and zero compilations,
// which is what makes micro-batching windows of a millisecond meaningful.
#ifndef SRC_SERVE_SERVER_H_
#define SRC_SERVE_SERVER_H_

#include <array>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/status.h"
#include "src/common/tracing.h"
#include "src/core/models/model.h"
#include "src/graph/datasets.h"
#include "src/serve/admission_queue.h"
#include "src/serve/batcher.h"
#include "src/serve/circuit_breaker.h"
#include "src/serve/model_registry.h"
#include "src/serve/request.h"

namespace seastar {
namespace serve {

// One serving tenant: a named traffic class bound to a registry model id,
// with its own QoS knobs and failure domain.
struct TenantConfig {
  std::string name = "default";
  std::string model_id = "default";
  // Weighted-fair share of batch dispatches relative to other tenants.
  double weight = 1.0;
  // Cap on this tenant's queued backlog (admission quota); 0 = bounded only
  // by the shared queue capacity.
  int max_queued = 0;
  // Fault-injection spec (src/common/fault.h grammar) armed around *this
  // tenant's* forward executions only — the "misbehaving tenant" drill knob.
  // Arms the process FaultInjector for the duration of the tenant's batch,
  // so it must not be combined with externally armed global faults. "" = off.
  std::string fault_spec;
};

struct ServeConfig {
  // ---- Admission ---------------------------------------------------------
  int queue_capacity = 64;  // Requests beyond this are shed at the door.
  double default_deadline_ms = 100.0;  // For requests with deadline_ms == 0.

  // ---- Tenants -----------------------------------------------------------
  // Empty = one default tenant (weight 1, no quota) bound to the registry's
  // single entry. Names must be unique; an empty request.tenant routes to
  // tenants[0].
  std::vector<TenantConfig> tenants;

  // ---- Batching ----------------------------------------------------------
  int max_batch = 8;
  double max_batch_delay_ms = 1.0;

  // ---- Retry policy (transient faults: injected allocation failures,
  //      exceptions escaping pool workers) --------------------------------
  int max_retries = 2;                 // Attempts = 1 + max_retries.
  double retry_base_backoff_ms = 0.5;  // Backoff = base * 2^attempt.

  // ---- Circuit breaker (instantiated per tenant) -------------------------
  // While open (or once retries are exhausted), requests are answered from
  // the tenant's last-known-good cache, or fail when it has none yet.
  int breaker_trip_after = 3;              // Consecutive batch failures.
  double breaker_probe_interval_ms = 25.0;  // One probe per interval while open.

  // ---- Observability -----------------------------------------------------
  // Start() records a "warmup" span on the caller's ambient trace
  // (tracing.h), if any. Per-request distributed tracing (tracing.h). On by default: every
  // request gets a span tree; *retention* is what sampling decides. The head
  // sampler keeps ~1% of clean traffic and the tail reservoir keeps the
  // slowest-N plus every anomalous request (shed / expired / degraded /
  // retried / breaker-tripped / failed), so the requests worth debugging are
  // always exportable even at head_sample_rate = 0.
  trace::TracerConfig tracing;
};

// Counters; a quiesced server satisfies
//   submitted == served + degraded + shed + expired + failed.
// Rejected requests never enter the serving pipeline and sit outside that
// identity; quota_shed is the subset of shed attributed to a tenant's own
// admission quota (not the shared capacity). stats() returns one snapshot
// taken under a single lock, so the identity holds for the snapshot itself
// whenever the server is quiesced, and every snapshot has outcomes <=
// submitted: a request is counted as submitted before it is queued (a push
// refused because the queue closed then moves it to rejected), so no reader
// sees an outcome before its submission. The identity fields (and retries)
// are the sum over tenants plus what no tenant owns: unknown-tenant
// rejections, warmup and swap-warm retries. The process metrics
// (seastar_serve_*_total) move with them, so --metrics-out can check it too.
struct ServerStats {
  int64_t submitted = 0;  // Requests admitted or shed (validated, not rejected).
  int64_t rejected = 0;   // Invalid (bad vertices / fingerprint / tenant) or queue closed.
  int64_t shed = 0;       // Turned away at the door (capacity or quota).
  int64_t quota_shed = 0;  // Subset of shed: the tenant's own quota.
  int64_t served = 0;     // Fresh forward-pass answers.
  int64_t degraded = 0;   // Answered from the last-known-good cache.
  int64_t expired = 0;    // Deadline passed (in queue or mid-execution).
  int64_t failed = 0;     // Everything else (retries exhausted, no LKG, ...).
  int64_t retries = 0;        // Transient-fault retry attempts paid.
  int64_t batches = 0;        // Forward passes attempted (incl. retries and warmups).
  int64_t breaker_trips = 0;        // Summed over tenants.
  int64_t breaker_recoveries = 0;
  int64_t breaker_probes = 0;
  int64_t deadline_unit_aborts = 0;  // Executions aborted at a unit boundary.
  int64_t swaps = 0;           // Hot-swaps flipped live.
  int64_t swap_failures = 0;   // Staged swaps that failed warmup/publish.
  int64_t swap_retired = 0;    // Old generations fully drained and retired.
  // Tracer counters (started/finished/retained/evicted/...); zeroed when
  // tracing is disabled.
  trace::TracerStats trace;
};

// Per-tenant slice of the identity, plus that tenant's breaker counters.
// For every tenant, submitted == served + degraded + shed + expired + failed
// holds exactly (quota_shed ⊆ shed). The global ServerStats identity fields
// are computed from these, so the per-tenant sum holds by construction.
struct TenantStats {
  int64_t submitted = 0;
  int64_t rejected = 0;
  int64_t shed = 0;
  int64_t quota_shed = 0;
  int64_t served = 0;
  int64_t degraded = 0;
  int64_t expired = 0;
  int64_t failed = 0;
  int64_t retries = 0;
  int64_t batches = 0;
  int64_t breaker_trips = 0;
  int64_t breaker_recoveries = 0;
  int64_t breaker_probes = 0;
};

struct LatencySummary {
  int64_t count = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

class Server {
 public:
  // Serves the entries of `registry` (pre-populated by the caller; shared so
  // swap tooling can address it too). Every tenant in `config.tenants` must
  // resolve to a registered model id by Start(); no tenants means one
  // "default" tenant bound to the registry's single entry.
  Server(std::shared_ptr<ModelRegistry> registry, ServeConfig config);

  // The same server over a one-entry registry that borrows `model` (which,
  // with `data`, must outlive the server) as model id "default": requests
  // are answered by that very object, which therefore cannot hot-swap.
  Server(GnnModel& model, const Dataset& data, ServeConfig config);

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Runs one warmup forward per distinct model (plans, allocator pool, LKG
  // caches; a failure is logged, not fatal) and starts the serving thread.
  // Must be called once before Submit.
  Status Start();

  // Closes admission, drains queued requests (every outstanding future is
  // fulfilled), fails pending swaps, and joins the serving thread. Idempotent.
  void Shutdown();

  // Admits a request (routing by request.tenant). The returned future is
  // always eventually fulfilled — immediately with a Status for
  // invalid/shed/closed requests, by the serving thread otherwise.
  std::future<StatusOr<InferenceResponse>> Submit(InferenceRequest request);

  // Blocking convenience wrapper.
  StatusOr<InferenceResponse> Infer(InferenceRequest request);

  // Zero-downtime weight hot-swap: stages `checkpoint_path` as the next
  // version of `model_id` on the calling thread (tag-checked load + weight
  // copy into a fresh factory-built model), then hands it to the serving
  // thread, which — between batches — runs the warmup forward, seeds the
  // affected tenants' LKG caches, publishes the entry, and resets their
  // breakers' backend state. The future resolves with the new version number
  // after the flip (or the staging/warmup error). Requires Start().
  std::future<StatusOr<int64_t>> RequestHotSwap(const std::string& model_id,
                                                const std::string& checkpoint_path);

  ServerStats stats() const;
  StatusOr<TenantStats> tenant_stats(const std::string& tenant) const;
  std::vector<std::string> tenant_names() const;

  StatusOr<BreakerState> tenant_breaker_state(const std::string& tenant) const;

  // Percentiles over end-to-end latency of answered (served or degraded)
  // requests, all tenants pooled. Served from a log-bucketed histogram:
  // quantiles carry the bucket's relative error (<= 1/16) instead of being
  // exact, in exchange for an O(1)-memory record path with no lock and no
  // allocation.
  LatencySummary latency_summary() const;
  StatusOr<LatencySummary> tenant_latency_summary(const std::string& tenant) const;

  int queue_depth() const { return queue_.size(); }
  ModelRegistry& registry() { return *registry_; }

  // ---- Tracing ------------------------------------------------------------
  // The retained traces (tail reservoir + anomalies + head-sampled) as
  // Chrome-trace JSON (chrome://tracing / Perfetto loadable): one pid per
  // tenant, one tid per request, spans as complete events. Empty-but-valid
  // JSON when tracing is disabled.
  std::string TracesJson() const;
  // Writes TracesJson() to `path`; false on I/O error or tracing disabled.
  bool DumpTraces(const std::string& path) const;
  // Null when config.tracing.enabled is false.
  const trace::Tracer* tracer() const { return tracer_.get(); }

 private:
  struct AttemptResult {
    Status status;       // OK on success.
    bool retryable = false;
    Tensor logits;       // Defined on success: [N, num_classes].
    bool unit_abort = false;  // Execution aborted at a deadline check.
  };

  // The per-request outcomes, in TenantStats field order.
  enum Outcome : int { kSubmitted, kRejected, kShed, kQuotaShed, kServed, kDegraded, kExpired,
                       kFailed, kNumOutcomes };

  // Per-tenant runtime state. Stats fields are guarded by stats_mutex_, the
  // LKG tensor by lkg_mutex_; the breaker guards itself.
  struct Tenant {
    uint32_t index = 0;
    TenantConfig config;
    std::unique_ptr<CircuitBreaker> breaker;
    Tensor lkg;               // Last-known-good full-graph logits.
    TenantStats stats;
    metrics::Histogram latency_hist{"tenant_latency_ms"};
    // Cached registry handles per Outcome (label baked into the metric name)
    // so the per-request path never performs a registry lookup.
    std::array<metrics::Counter*, kNumOutcomes> counters{};
  };

  // A staged hot-swap awaiting the serving thread's warm + flip.
  struct PendingSwap {
    std::shared_ptr<const ModelEntry> staged;
    std::promise<StatusOr<int64_t>> promise;
  };

  void ServeLoop();
  void ServeBatch(std::vector<std::unique_ptr<PendingRequest>> batch);
  // One forward pass of `entry` under `deadline`; classifies failures.
  AttemptResult RunForwardOnce(const ModelEntry& entry, const Deadline& deadline);
  // Execute with retry/backoff. Callers update LKG caches on success.
  AttemptResult ExecuteWithRetries(const ModelEntry& entry, const Deadline& deadline,
                                   int* retries_paid);
  void FulfillFromLogits(const Tensor& logits, std::vector<std::unique_ptr<PendingRequest>>& batch,
                         Tenant& tenant, bool degraded, int retries_paid);
  void FailBatch(std::vector<std::unique_ptr<PendingRequest>>& batch, Tenant& tenant,
                 const Status& status);
  // Applies queued swaps: warm forward, LKG seed, publish, breaker reset.
  void ProcessPendingSwaps();
  // Emits retire events for drained old generations.
  void PollRetirements();
  void RecordLatency(Tenant& tenant, double total_ms, uint64_t trace_id);
  Tenant* FindTenant(const std::string& name) const;

  // The one place identity counters move: `n` requests of `outcome` for
  // `tenant` (null: owned by none) in its TenantStats, the process counter
  // and its labelled counter, together under stats_mutex_.
  void Count(Tenant* tenant, Outcome outcome, int64_t n = 1);
  // Retries of a tenant's batch (plus its attempts), or of a warmup /
  // swap-warm forward when `tenant` is null.
  void CountRetries(Tenant* tenant, int retries_paid);

  // Applies `mutate` to the server-level stats under stats_mutex_.
  template <typename Fn>
  void UpdateStats(Fn&& mutate) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    mutate(stats_);
  }

  const ServeConfig config_;
  // Owns every RequestTrace (pooled); null when tracing is disabled, so the
  // per-request cost with tracing off is one pointer test.
  std::unique_ptr<trace::Tracer> tracer_;

  std::shared_ptr<ModelRegistry> registry_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
  std::map<std::string, uint32_t> tenant_index_;

  AdmissionQueue queue_;
  MicroBatcher batcher_;

  std::thread serving_thread_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::mutex shutdown_mutex_;  // Serializes join() across concurrent Shutdowns.

  // Staged swaps handed from RequestHotSwap callers to the serving thread.
  std::mutex swap_mutex_;
  std::deque<PendingSwap> pending_swaps_;

  // Per-tenant last-known-good logits, written by the serving thread after
  // every successful forward, read by it for degraded serving. Guarded for
  // the stats/test readers.
  mutable std::mutex lkg_mutex_;

  // All counters that participate in (or ride along with) the accounting
  // identity live behind one mutex; increments are a few nanoseconds under
  // an uncontended lock (client threads at admission, the serving thread at
  // fulfillment), and stats() reads everything in one critical section.
  // Breaker counters stay with each tenant's breaker — they are not part of
  // the identity.
  mutable std::mutex stats_mutex_;
  ServerStats stats_;          // Server-level: batches, unit aborts, swaps.
  TenantStats unattributed_;  // What no tenant owns (see ServerStats).
  std::atomic<uint64_t> next_request_id_{1};

  // End-to-end latency of answered requests, all tenants pooled, for
  // latency_summary(). Per-server (the registry's
  // seastar_serve_request_latency_ms is process-wide and would mix servers
  // in tests).
  metrics::Histogram latency_hist_{"latency_ms"};
};

}  // namespace serve
}  // namespace seastar

#endif  // SRC_SERVE_SERVER_H_
