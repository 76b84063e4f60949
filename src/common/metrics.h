// Process-wide, always-on metrics: typed Counter/Gauge/Histogram handles in
// a MetricsRegistry, with Prometheus-style text exposition and a JSON
// snapshot exporter.
//
// Relationship to tracing (tracing.h): a trace records individual spans —
// every span of a profiled run, or the sampled requests of a server — for
// offline analysis, and costs one thread-local test when none is installed.
// Metrics are the opposite trade: always on, aggregated in place (a counter
// bump or a histogram bucket increment, never an event record), and readable
// at any moment by an exporter. A trace answers "where did this run or
// request spend its time"; the registry answers "what is the process doing
// right now and what has it done since boot" — the §7-style measured
// behaviour (per-kernel time, memory, queue pressure) as live counters
// instead of one-off tables.
//
// Overhead discipline (why hot paths can afford this):
//  * Handles are registered once and cached by the instrumented code (a
//    static or a member struct). Registry lookups never happen per event —
//    MetricsRegistry counts lookups so tests can assert exactly that.
//  * Counter::Add is one relaxed fetch_add on a per-thread shard (cache-line
//    padded, so worker threads never contend on the same line).
//  * Histogram::Record is a branch-light bucket-index computation (frexp on
//    the double) plus two relaxed adds and a CAS-max on the same shard.
//  * Nothing on the record path allocates, locks, or touches the registry.
//    Allocation happens only at registration and in the exporters.
//  * Subsystems with existing atomic counters (TensorAllocator, PlanCache)
//    are exported through *callbacks* evaluated at snapshot time — their hot
//    paths are not double-instrumented.
//
// Naming convention: seastar_<area>_<name>{unit}, e.g.
//   seastar_serve_requests_total            (counter, unitless)
//   seastar_serve_request_latency_ms        (histogram, milliseconds)
//   seastar_serve_queue_depth               (gauge)
//   seastar_simt_dispatches_total{schedule="dynamic"}   (label baked in)
// Counters end in _total; histograms/gauges carry their unit suffix.
#ifndef SRC_COMMON_METRICS_H_
#define SRC_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace seastar {

class JsonWriter;

namespace metrics {

// Shard count for per-thread accumulation. A power of two; threads hash onto
// shards round-robin, so any pool size up to kShards is fully uncontended
// and larger pools degrade gracefully to 1/kShards expected collisions.
inline constexpr int kShards = 16;

// Escapes a Prometheus label *value* per the exposition format: backslash,
// double-quote, and newline must become \\, \", and \n or the sample line is
// malformed and the whole scrape fails to parse. Use this wherever a label
// value is baked into a metric name (tenant names, model ids).
std::string EscapeLabelValue(std::string_view value);

namespace internal {

// One cache line per shard so concurrent workers never false-share.
struct alignas(64) CounterShard {
  std::atomic<int64_t> value{0};
};

int ThisThreadShard();

}  // namespace internal

// Monotone counter. Add() is wait-free and uncontended across pool workers.
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(int64_t n = 1) {
    shards_[internal::ThisThreadShard()].value.fetch_add(n, std::memory_order_relaxed);
  }

  int64_t value() const {
    int64_t total = 0;
    for (const internal::CounterShard& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  const std::string& name() const { return name_; }

 private:
  const std::string name_;
  internal::CounterShard shards_[kShards];
};

// Last-write-wins double value (queue depth, loss, breaker state). Set() and
// Add() are single atomics; gauges are updated at event rate, not item rate,
// so one cache line is enough.
class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double value) { value_.store(value, std::memory_order_relaxed); }

  void Add(double delta) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta, std::memory_order_relaxed)) {
    }
  }

  double value() const { return value_.load(std::memory_order_relaxed); }

  const std::string& name() const { return name_; }

 private:
  const std::string name_;
  std::atomic<double> value_{0.0};
};

// A tail observation worth keeping by name: the largest values a histogram
// has seen, each linked to the trace id of the request that produced it —
// the bridge from "p99 moved" to "this is the trace of the request that
// moved it". Exported OpenMetrics-style in the text exposition and as an
// `exemplars` array in the JSON snapshot.
struct Exemplar {
  double value = 0.0;
  uint64_t trace_id = 0;
};

// Summary of a histogram at one instant.
struct HistogramSnapshot {
  int64_t count = 0;
  double sum = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

// Log-bucketed (HDR-style) histogram of non-negative doubles.
//
// Buckets: values are split into power-of-two octaves, each octave into
// kSubBuckets linear sub-buckets, so the bucket width tracks the magnitude
// of the value — quantiles are exact to within one sub-bucket, a relative
// error of at most 1/kSubBuckets (6.25%), across ten decades of range
// without per-histogram configuration. Covered range (in the histogram's
// unit, milliseconds for latencies): [2^kMinExp, 2^kMaxExp) ≈ [0.001, 3e7];
// values outside clamp into the underflow/overflow buckets and the exact
// max is tracked separately, so a pathological outlier is never silently
// averaged away.
class Histogram {
 public:
  // Sub-buckets per power-of-two octave.
  static constexpr int kSubBuckets = 16;
  // frexp exponents covered: value v = m * 2^e with m in [0.5, 1).
  static constexpr int kMinExp = -9;   // Octave [2^-10, 2^-9) ~ [0.001, 0.002).
  static constexpr int kMaxExp = 25;   // Octave [2^24, 2^25) ~ [1.7e7, 3.4e7).
  static constexpr int kNumOctaves = kMaxExp - kMinExp + 1;
  // [0] underflow, [1 .. octaves*sub] log buckets, [last] overflow.
  static constexpr int kNumBuckets = kNumOctaves * kSubBuckets + 2;

  explicit Histogram(std::string name) : name_(std::move(name)) {}

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  // Records one observation. Wait-free except for the per-shard CAS max
  // (contended only by threads hashing to the same shard *and* racing a new
  // maximum). Negative and NaN values are counted into the underflow bucket
  // so count stays consistent with calls.
  void Record(double value);

  // Records `value` and, when `trace_id` is nonzero and the value ranks
  // among the kExemplarSlots largest seen so far, retains (value, trace_id)
  // as a tail exemplar. Fast path: once the slots are full, values at or
  // below the current floor skip the exemplar lock entirely (one relaxed
  // load) — only genuine tail observations pay the mutex.
  void RecordWithExemplar(double value, uint64_t trace_id);

  // Retained tail exemplars, sorted descending by value.
  static constexpr int kExemplarSlots = 8;
  std::vector<Exemplar> Exemplars() const;

  // Index of the bucket `value` lands in (exposed for the bucket-math tests).
  static int BucketIndex(double value);
  // Inclusive upper bound of `bucket` (the value quantiles report).
  static double BucketUpperBound(int bucket);

  HistogramSnapshot Snapshot() const;
  int64_t count() const;

  const std::string& name() const { return name_; }

 private:
  struct alignas(64) Shard {
    std::atomic<int64_t> counts[kNumBuckets]{};
    std::atomic<int64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> max{0.0};
  };

  const std::string name_;
  Shard shards_[kShards];

  // Smallest value currently holding an exemplar slot once all slots are
  // full; -inf while slots remain. Read relaxed on the record path so
  // non-tail observations never touch exemplar_mutex_.
  std::atomic<double> exemplar_floor_{-std::numeric_limits<double>::infinity()};
  mutable std::mutex exemplar_mutex_;
  Exemplar exemplars_[kExemplarSlots];  // Guarded by exemplar_mutex_.
  int exemplar_count_ = 0;              // Guarded by exemplar_mutex_.
};

// A metric whose value lives elsewhere (TensorAllocator's atomics, the
// PlanCache) and is pulled at export time: zero added cost on the owning
// subsystem's hot path.
enum class CallbackKind { kCounter, kGauge };

class MetricsRegistry {
 public:
  // The process-wide registry (what the instrumented subsystems and the
  // --metrics-out exporters use). Tests may construct private registries.
  static MetricsRegistry& Get();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Find-or-create. Returned pointers are stable for the registry's lifetime
  // (process lifetime for Get()); instrumented code resolves them once and
  // caches them. Every call counts as a lookup.
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  // Registers a pull-style metric; `fn` runs under the registry mutex at
  // export time and must not call back into the registry. Re-registering a
  // name replaces the callback (the singletons that register these may be
  // re-created in tests).
  void RegisterCallback(std::string_view name, CallbackKind kind, std::function<double()> fn);

  // How many Get*/RegisterCallback calls ever ran. Hot paths cache handles,
  // so tests assert this does not move across a steady epoch / request.
  int64_t lookups() const { return lookups_.load(std::memory_order_relaxed); }

  // ---- Exporters ----------------------------------------------------------

  // Prometheus-style text exposition: "# TYPE" comments, counters/gauges as
  // single samples, histograms as summaries (quantile-labelled samples plus
  // _count/_sum/_max). Metrics are sorted by name.
  std::string TextExposition() const;

  // JSON snapshot of the same data (the --metrics-out= format).
  void WriteJson(JsonWriter& writer) const;
  std::string JsonSnapshot() const;

  // Writes the JSON snapshot (and, for WriteTextFile, the exposition) to a
  // file. False on I/O error.
  bool WriteJsonFile(const std::string& path) const;
  bool WriteTextFile(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::atomic<int64_t> lookups_{0};
  // std::map keeps exposition output sorted and iterator/pointer-stable.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  struct Callback {
    CallbackKind kind;
    std::function<double()> fn;
  };
  std::map<std::string, Callback, std::less<>> callbacks_;
};

}  // namespace metrics
}  // namespace seastar

#endif  // SRC_COMMON_METRICS_H_
