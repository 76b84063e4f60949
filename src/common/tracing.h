// The one span recorder: per-request traces for the serving stack and
// run-scoped traces for training runs, benches and examples.
//
// A span is a fixed-size POD record (Span) in its trace's buffer: a static
// name and category, the named int64 args it set (kernel counters such as
// edges, blocks, dispatches, tiling, pool and plan-cache reuse; loop
// positions; serving annotations), one static-string arg (the SIMD ISA)
// and a short dynamic detail. Dynamic names — a fused unit's label
// "unit3:Identity+DotProduct+Mul+AggSum", a bench run's "cora/seastar" —
// are interned (Intern), so a span never points into state that can be
// freed (a PlanCache::Clear() leaves every recorded label whole).
//
// Propagation is ambient, following deadline.h: the caller installs a trace
// in a thread-local (ScopedTraceContext, or ScopedRun for run-scoped
// recording), and executors, VertexProgram, the training loops and the
// server record through AmbientSpan without any signature change. With no
// trace installed every hook is one thread-local load and a null test, and
// the executors skip their counter collection entirely.
//
// Retention is a property of the Tracer that owns the traces:
//  * Retention::kSampled (serving). Every request is traced, so a tail
//    outlier can be kept after the fact; *retention* is what sampling
//    decides. A head sampler — a deterministic function of the trace id —
//    admits ~head_sample_rate of clean requests, and a tail reservoir keeps
//    every anomalous request (shed / expired / degraded / retried /
//    breaker-involved / failed) plus the slowest-N others, so p99 outliers
//    are never lost even at a 0% head rate. Traces are pooled and recycled
//    and each has a span budget, so steady state performs no fresh
//    allocation and no locks outside StartTrace/FinishTrace.
//  * Retention::kRun (training, benches, examples). Every
//    finished trace is kept whole, with no span budget: one trace per run,
//    rooted at the run's span.
//
// Span mutation is single-owner by construction (for a request: the client
// thread before the queue push, the serving thread after the pop; for a run:
// the thread that installed it), so recording takes no locks.
//
// One exporter writes both: Chrome-trace JSON (chrome://tracing, Perfetto),
// one pid per tenant, one tid per trace, spans as "X" complete events with
// their args, validated by tools/trace_check.py. SummaryTable aggregates the
// retained spans by (category, name). See docs/INTERNALS.md §17.
#ifndef SRC_COMMON_TRACING_H_
#define SRC_COMMON_TRACING_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace seastar {

class JsonWriter;

namespace trace {

// Anomaly classes. Any nonzero flag set makes a trace unconditionally
// reservoir-retained at finish, regardless of head sampling.
enum AnomalyFlag : uint32_t {
  kShed = 1u << 0,      // Turned away at the door (capacity or quota).
  kExpired = 1u << 1,   // Deadline passed (queued, mid-execution, or at fulfillment).
  kDegraded = 1u << 2,  // Answered from the last-known-good cache.
  kRetried = 1u << 3,   // Paid at least one transient-fault retry.
  kBreaker = 1u << 4,   // Tripped the breaker, or served while it was open.
  kFailed = 1u << 5,    // Fresh answer impossible and no fallback.
};

// "shed|retried" rendering for exports and logs; "clean" when flags == 0.
std::string FlagNames(uint32_t flags);

// The named int64 args a span can carry. A span records only the args it
// sets; exports and the summary table skip the rest.
enum class Arg : uint8_t {
  // Kernel behaviour (paper §7): edges traversed, tensor bytes written,
  // block-scheduler dispatch grants, kernel launches, allocator live-byte
  // delta (signed) and watermark rise.
  kEdges, kBytesMaterialized, kDispatches, kKernelLaunches, kAllocDeltaBytes, kPeakDeltaBytes,
  // Steady-state caching: whether the plan came from the PlanCache, and how
  // allocations split between pool reuse and fresh mallocs.
  kPlanCacheHits, kPlanCacheMisses, kPoolHits, kPoolMisses,
  // Cache-blocked tiling: CSR segments (one simulated thread block each),
  // segment x feature-tile passes, and columns per tile.
  kTileSegments, kTilePasses, kTileWidth,
  // Loop position and partitioning.
  kEpoch, kShards,
  // Serving annotations.
  kStrideLagX1000, kQueuedAhead, kOccupancy, kBatchKey, kAttempt, kStatus, kRetries,
  kLeaderTrace, kVertices,
  kNumArgs,
};
inline constexpr int kNumArgs = static_cast<int>(Arg::kNumArgs);

// Returns a process-lifetime copy of `text`: the way to give a span a
// dynamic name. Equal strings intern to the same pointer. Intern labels once
// (at compile or registration time), not per span.
const char* Intern(std::string_view text);

// One node of a trace's span tree.
struct Span {
  const char* name = "";      // Static taxonomy name or an Intern()ed label.
  const char* category = "";  // "serve", "exec", "unit", "op", "train", ...
  const char* simd_isa = nullptr;  // Dispatched row-kernel ISA; null = n/a.
  char detail[24] = {};            // Truncated dynamic annotation; "" = none.
  int64_t start_us = 0;            // Relative to the owning Tracer's epoch.
  int64_t dur_us = -1;             // -1 while open.
  int32_t parent = -1;             // Index of the parent span; -1 = root.
  uint32_t arg_mask = 0;           // Bit i set: args[i] was recorded.
  int64_t args[kNumArgs] = {};

  bool has(Arg key) const { return (arg_mask >> static_cast<int>(key)) & 1u; }
  int64_t arg(Arg key) const { return args[static_cast<int>(key)]; }
  void Set(Arg key, int64_t value) {
    arg_mask |= 1u << static_cast<int>(key);
    args[static_cast<int>(key)] = value;
  }
};
static_assert(kNumArgs <= 32, "Span::arg_mask holds one bit per Arg");

class Tracer;

// The span tree of one request or one run, owned by its Tracer. Spans are
// appended by whichever thread currently owns the trace — never two at once
// — so mutation is lock-free. Begin/End follow stack discipline (an inner
// span closes before its parent); AddSpan records an already-closed interval
// measured elsewhere (e.g. queue wait, admission->dequeue).
class RequestTrace {
 public:
  using Clock = std::chrono::steady_clock;

  uint64_t trace_id() const { return trace_id_; }
  bool sampled() const { return sampled_; }
  uint32_t tenant_index() const { return tenant_index_; }
  uint64_t request_id() const { return request_id_; }

  void AddFlag(uint32_t flag) { flags_ |= flag; }
  uint32_t flags() const { return flags_; }

  // Opens a span as a child of the innermost open span. Returns a token for
  // EndSpan, or -1 when the span budget is exhausted (the drop is counted;
  // every call taking a -1 token is a no-op).
  int BeginSpan(const char* name, const char* category = "serve");
  int BeginSpanAt(const char* name, Clock::time_point start, const char* category = "serve");
  void EndSpan(int token);

  // Records a closed interval measured by the caller, as a child of the
  // innermost open span.
  int AddSpan(const char* name, Clock::time_point start, Clock::time_point end);

  void SetDetail(int token, std::string_view detail);
  void SetArg(int token, Arg key, int64_t value);
  // The span for `token`, null for a dropped token. Valid until the next
  // span is recorded on this trace.
  Span* mutable_span(int token);

  int num_spans() const { return static_cast<int>(spans_.size()); }
  const Span& span(int index) const { return spans_[static_cast<size_t>(index)]; }
  int64_t dropped_spans() const { return dropped_spans_; }

  // Set by FinishTrace.
  double total_ms() const { return total_ms_; }
  const char* outcome() const { return outcome_; }

 private:
  friend class Tracer;
  RequestTrace() = default;

  void Reset(uint64_t trace_id, bool sampled, uint32_t tenant_index, uint64_t request_id,
             Clock::time_point epoch, int max_spans);
  int64_t RelMicros(Clock::time_point tp) const;
  int Append(const char* name, const char* category, int64_t start_us, int64_t dur_us);

  uint64_t trace_id_ = 0;
  uint64_t request_id_ = 0;
  uint32_t tenant_index_ = 0;
  uint32_t flags_ = 0;
  bool sampled_ = false;
  int32_t open_ = -1;  // Innermost open span: parent for the next Begin/Add.
  int max_spans_ = 0;
  int64_t dropped_spans_ = 0;
  double total_ms_ = 0.0;
  char outcome_[16] = "open";
  Clock::time_point epoch_{};
  std::vector<Span> spans_;  // Capacity survives pool recycling.
};

// Newest-kept ring capacity for head-sampled clean traces.
inline constexpr int kSampledKeep = 256;
// Tail tier: the slowest-N non-anomalous finished traces, by total_ms.
inline constexpr int kTailKeep = 32;
// Span budget per sampled trace; recording beyond it drops (counted) rather
// than growing without bound.
inline constexpr int kMaxSpansPerTrace = 96;

struct TracerConfig {
  bool enabled = true;
  // Head tier: fraction of traces retained unconditionally (deterministic in
  // the trace id, so a fixed seed admits a stable subset). 0 disables the
  // head tier; the tail reservoir still runs.
  double head_sample_rate = 0.01;
  // Newest-kept ring capacity for anomalous traces (kSampledKeep is the
  // head-sampled ring's, kTailKeep the tail heap's). Overflowing traces are
  // re-offered to the tail heap before recycling, so the slowest requests
  // survive even a flood of anomalies.
  int anomaly_keep = 8192;
  // Mixed into trace ids (and thus the head sampler). Fixed seed => fully
  // deterministic ids and sampling decisions.
  uint64_t seed = 0;
};

// What a Tracer keeps of its finished traces (see the file comment).
enum class Retention {
  kSampled,  // Serving: pooled, head + tail sampling, TracerConfig budgets.
  kRun,      // Run-scoped: every trace kept whole; TracerConfig unused.
};

// Counters exported as the `trace` section of ServerStats.
struct TracerStats {
  int64_t started = 0;
  int64_t finished = 0;
  int64_t head_sampled = 0;        // Sampler admissions among started traces.
  int64_t anomalies_observed = 0;  // Finished with any anomaly flag.
  int64_t retained_sampled = 0;    // Currently held, per store.
  int64_t retained_anomaly = 0;
  int64_t retained_tail = 0;
  int64_t retained_run = 0;
  int64_t evicted = 0;             // Recycled out of a retention store.
  int64_t spans_dropped = 0;       // Spans beyond the per-trace budget.
  int64_t pool_misses = 0;         // StartTrace allocations not served by the pool.
};

// Owns trace lifecycle, retention, and export. StartTrace and FinishTrace
// are thread-safe (client threads start, the serving thread finishes — sheds
// finish on the client thread); everything between is the single-owner span
// recording above.
class Tracer {
 public:
  using Clock = RequestTrace::Clock;

  explicit Tracer(TracerConfig config, Retention retention = Retention::kSampled);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Begins a trace (never null). The returned object stays valid until
  // FinishTrace; callers must finish every started trace exactly once.
  RequestTrace* StartTrace(uint32_t tenant_index, uint64_t request_id);

  // Closes open spans, stamps outcome/total, and decides retention. Under
  // kSampled, anomalous traces go to the anomaly ring, head-sampled ones to
  // the sampled ring, everything else competes for the slowest-N tail heap,
  // and losers are recycled into the pool. Under kRun the trace is kept.
  // `trace` must not be used afterwards.
  void FinishTrace(RequestTrace* trace, double total_ms, const char* outcome);

  // The deterministic head-sampling decision (exposed for tests).
  static bool HeadSampled(uint64_t trace_id, double rate);

  // Chrome-trace pid naming: pid = tenant index, named "tenant:<name>".
  void SetTenantName(uint32_t index, std::string name);

  TracerStats stats() const;

  // Visits every retained trace under the tracer mutex. For tests and
  // custom exporters.
  void ForEachRetained(const std::function<void(const RequestTrace&)>& fn) const;

  // Chrome-trace JSON: {"displayTimeUnit", "traceEvents": [...], "traceStats"}.
  // One pid per tenant, one tid per trace; ts/dur in microseconds since the
  // tracer epoch. Loadable in chrome://tracing / Perfetto.
  void WriteChromeTrace(JsonWriter& writer) const;
  std::string ChromeTraceJson() const;
  bool WriteChromeTraceFile(const std::string& path) const;

  // Retained spans aggregated per (category, name): count, total/avg ms,
  // edges, bytes materialized, kernel launches, plan-cache hits/misses, pool
  // hit rate, tiling (segments/tile width) and SIMD ISA. Names print whole.
  std::string SummaryTable() const;

 private:
  std::unique_ptr<RequestTrace> Acquire();  // Caller holds mutex_.
  void Recycle(std::unique_ptr<RequestTrace> trace);  // Caller holds mutex_.
  // Offers to the slowest-N heap; recycles the loser. Caller holds mutex_.
  void OfferTail(std::unique_ptr<RequestTrace> trace);
  // Calls fn(trace, retained_by) for every retained trace. Caller holds mutex_.
  void VisitRetained(const std::function<void(const RequestTrace&, const char*)>& fn) const;

  const TracerConfig config_;
  const Retention retention_;
  const Clock::time_point epoch_;

  mutable std::mutex mutex_;
  uint64_t next_trace_ = 1;
  TracerStats stats_;
  std::vector<std::unique_ptr<RequestTrace>> pool_;
  std::deque<std::unique_ptr<RequestTrace>> sampled_;    // FIFO; newest kept.
  std::deque<std::unique_ptr<RequestTrace>> anomalies_;  // FIFO; newest kept.
  std::vector<std::unique_ptr<RequestTrace>> tail_;      // Min-heap by total_ms.
  std::vector<std::unique_ptr<RequestTrace>> runs_;      // kRun: every trace.
  std::map<uint32_t, std::string> tenant_names_;
};

// ---- Ambient propagation (the ScopedDeadline pattern) -----------------------

namespace trace_internal {
// constinit: the compiler knows the variable needs no dynamic initialization,
// so every access is a direct thread-local load, with no TLS wrapper call and
// no check for an initialization function.
extern thread_local constinit RequestTrace* tls_trace;
}  // namespace trace_internal

// Installs `trace` as the calling thread's ambient trace for the scope's
// lifetime (nests; restores the previous on exit). Null hides any outer
// trace for the scope.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(RequestTrace* trace) : previous_(trace_internal::tls_trace) {
    trace_internal::tls_trace = trace;
  }
  ~ScopedTraceContext() { trace_internal::tls_trace = previous_; }

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  RequestTrace* previous_;
};

inline RequestTrace* CurrentTrace() { return trace_internal::tls_trace; }

// The ambient trace's id, 0 when none — what the flight recorder stamps on
// every event for crash correlation.
inline uint64_t CurrentTraceId() {
  const RequestTrace* trace = trace_internal::tls_trace;
  return trace != nullptr ? trace->trace_id() : 0;
}

// RAII span against the ambient trace. With no trace installed construction
// is one thread-local load and a null test — the same budget as
// CheckExecutionDeadline — and active() tells hooks to skip their counter
// collection.
class AmbientSpan {
 public:
  explicit AmbientSpan(const char* name, const char* category = "serve")
      : trace_(trace_internal::tls_trace) {
    if (trace_ != nullptr) {
      token_ = trace_->BeginSpan(name, category);
    }
  }
  ~AmbientSpan() {
    if (trace_ != nullptr) {
      trace_->EndSpan(token_);
    }
  }

  AmbientSpan(const AmbientSpan&) = delete;
  AmbientSpan& operator=(const AmbientSpan&) = delete;

  bool active() const { return trace_ != nullptr; }
  // The open span, null when inactive or dropped. Valid until the next span
  // is recorded on the trace, so fetch it where the args are written.
  Span* span() { return trace_ != nullptr ? trace_->mutable_span(token_) : nullptr; }
  void Detail(std::string_view detail) {
    if (trace_ != nullptr) {
      trace_->SetDetail(token_, detail);
    }
  }
  void Set(Arg key, int64_t value) {
    if (trace_ != nullptr) {
      trace_->SetArg(token_, key, value);
    }
  }

 private:
  RequestTrace* trace_;
  int token_ = -1;
};

// Run-scoped recording: starts a trace on `tracer` (a Retention::kRun
// tracer), opens its root span `name`, installs it as the calling thread's
// ambient trace, and finishes it when the scope ends. A null tracer makes
// the whole scope a no-op (any outer ambient trace stays installed), so
// callers pass an optional sink unconditionally.
class ScopedRun {
 public:
  ScopedRun(Tracer* tracer, const char* name, const char* category);
  ~ScopedRun();

  ScopedRun(const ScopedRun&) = delete;
  ScopedRun& operator=(const ScopedRun&) = delete;

 private:
  Tracer* const tracer_;
  RequestTrace* const trace_;
  const Tracer::Clock::time_point start_;
  ScopedTraceContext context_;
};

// 16-digit lowercase hex rendering of a trace id — the format used in
// Chrome-trace args, metrics exemplars, and drill reports.
std::string TraceIdHex(uint64_t trace_id);

}  // namespace trace
}  // namespace seastar

#endif  // SRC_COMMON_TRACING_H_
