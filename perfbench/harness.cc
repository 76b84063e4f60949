// Benchmark harness: drives the repository's public APIs on one workload and
// prints one JSON line of measurements for perfbench/run.py.
//
//   perfbench_harness --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//                     [--mode=main|setup] [--trace-out=<chrome trace path>]
//
// --mode=main    set up, warm up, measure for --seconds, then run the
//                correctness checks outside the timed window.
// --mode=setup   set up only (training: plus two more epochs, whose
//                counters run.py compares with the main run's).
// --mode=probe   set up and run 100 untimed epochs, for the determinism
//                self-check only (run.py runs it with more threads).
//
// Per-layer numbers are taken from outside the program: the executor built
// by ExecutorFactory is wrapped in TimingExecutor (a decorator over the
// public Executor interface) and handed to the model constructor; harness
// timers bracket the forward, loss, backward and optimizer calls; counters
// are before/after snapshots of TensorAllocator, PlanCache and the metrics
// registry. With --trace=1 the timed window alternates recorded and
// unrecorded operations, so the tracing overhead is measured in-process
// against the same warm state; with --trace=0 nothing is recorded.
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/json.h"
#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/core/executor_factory.h"
#include "src/core/models/gat.h"
#include "src/core/models/gcn.h"
#include "src/core/nn.h"
#include "src/exec/plan_cache.h"
#include "src/graph/datasets.h"
#include "src/parallel/simt.h"
#include "src/serve/server.h"
#include "src/tensor/allocator.h"
#include "src/tensor/autograd.h"

namespace seastar {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Ms(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

double MsSince(Clock::time_point start) { return Ms(start, Clock::now()); }

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

double MegaBytes(uint64_t bytes) { return static_cast<double>(bytes) / (1024.0 * 1024.0); }

// a / b, with an empty denominator counted as one.
double Ratio(double a, double b) { return a / std::max(b, 1.0); }

// Nearest-rank percentile of an unsorted sample (copied).
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

// ---- Workloads ----------------------------------------------------------------------------------

// Why each workload exists is recorded in BENCHMARK.json and
// perfbench/README.md; the table here is only what the harness needs.
struct Workload {
  const char* name;
  const char* dataset;   // Catalogue name, materialized at full scale.
  const char* model;     // "gcn" | "gat"
  const char* executor;  // ExecutorFactory spec.
  bool serve;
};

constexpr Workload kWorkloads[] = {
    {"train-gcn-amzcomp", "amz_comp", "gcn", "seastar", false},
    {"train-gat-cora", "cora", "gat", "seastar", false},
    {"train-gcn-amzcomp-sharded4", "amz_comp", "gcn", "sharded:4", false},
    {"serve-gcn-pubmed", "pubmed", "gcn", "seastar", true},
};

// Every dataset's features are capped at this width. With the catalogue
// widths (500-1,433) the first layer's GEMM over the feature matrix would
// dominate every workload alike, and the layers each workload is meant to
// stress (aggregation, attention, serving) would barely show.
constexpr int64_t kMaxFeatureDim = 128;

// serve-gcn-pubmed: Poisson arrivals at kServeRate requests/s, each asking
// for 1..kMaxVerticesPerRequest random vertices. The server runs on its
// serving thread alone, where a batch's full-graph forward took 5-9 ms on a
// 4-vCPU VM, depending on the host's load. At 125/s up to about one request
// arrives during a forward, so requests that find the server busy share the
// next batch (mean batch 1.2-1.4), and the host can slow down 7x before the
// arrivals during one forward exceed max_batch (8). A forward of this size keeps the serving thread's wake-ups
// a small share of the latency, so the latency follows the host's compute
// speed and is normalized like the training epochs are. At 250/s the server
// was busy ~90% of the time, queueing amplified every change of host speed,
// and the normalized latency spread twice as much between runs.
constexpr double kServeRate = 125.0;
constexpr int kMaxVerticesPerRequest = 8;
// The one setting that differs from the default ServeConfig: the batcher
// takes the requests already queued instead of waiting up to 1 ms for more.
// On a shared VM that timed wait ended ~0.8 ms late on average, and later
// still when the host was busy, which moved the latency from run to run by
// more than any batching policy change would.
constexpr double kServeBatchDelayMs = 0.0;
// Open-loop requests carry this deadline instead of the server's default
// 100 ms: the workload measures latency, and a stall of the virtual machine
// must not turn into expired requests that differ from run to run. A
// request answered later than this still counts as failed.
constexpr double kServeDeadlineMs = 1000.0;
// Closed-loop warm phase counted in setup_s: waves of max_batch requests,
// ~0.4 s in all.
constexpr int kServeWarmWaves = 48;
// Open-loop warm-up before the timed window (neither setup nor timed).
constexpr double kServeWarmupSeconds = 2.0;
// The timed window is cut into segments of this much send schedule. Between
// two segments the generator waits until every request has been answered,
// runs the reference kernel once (see HostSpeed) and resumes the schedule
// where it stopped, so each segment's latencies are divided by the host
// slowdown measured just before and just after it.
constexpr double kServeSegmentSeconds = 1.0;
// A run whose generator fell behind its schedule is not a valid open loop:
// its submits lagged the schedule by more than kMaxGenLateP99Ms at p99, or
// the window's submits took visibly longer than their scheduled span.
constexpr double kMaxGenLateP99Ms = 10.0;
constexpr double kMinAchievedRateRatio = 0.98;
// Pause instructions between two polls of the generator (~1-5 us).
constexpr int kGeneratorPauses = 32;
// Every kServeSampleEvery-th answered request is compared with a reference
// forward after shutdown.
constexpr int kServeSampleEvery = 64;

// Training warm-up after the cold epoch: at least this many epochs and
// seconds, so the pool, plan cache and CPU clocks settle before timing.
constexpr int kWarmupEpochs = 3;
constexpr double kWarmupSeconds = 3.0;
// Epoch index (0 = the cold epoch) whose counters both the main run and the
// setup runs report for the cross-process determinism check.
constexpr int kCountedEpoch = 2;
// Epochs of a --mode=probe run.
constexpr int kProbeEpochs = 100;

// Tolerance of the seastar-vs-dgl eval-logit comparison, relative to the
// largest reference logit magnitude (floored at 1): the two executors sum
// the same terms in different orders.
constexpr double kDglRelTol = 1e-4;
// With --trace=1, recorded and unrecorded operations alternate: epochs one
// by one, requests in blocks of kTraceBlockSeconds of their send schedule.
constexpr double kTraceBlockSeconds = 0.25;

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

// ---- Harness-side spans -------------------------------------------------------------------------

// In-memory span log, written once as Chrome-trace JSON when the run ends.
// Not the repository's Profiler: that one records from a single thread onto
// one track, while the serving run logs overlapping requests (as async spans)
// beside the serving thread's execute calls, each span naming its parent.
class SpanLog {
 public:
  struct Span {
    const char* name;
    const char* category;
    Clock::time_point start;
    Clock::time_point end;
    int tid;
    int64_t id;
    int64_t parent;  // -1 for roots.
    bool async;      // Overlapping spans (requests) as async begin/end pairs.
  };

  SpanLog() : origin_(Clock::now()) {}

  int64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void Add(const Span& span) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
  }

  bool WriteChromeTrace(const std::string& path) const {
    auto us = [this](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - origin_).count();
    };
    JsonWriter json;
    // Opens one event object; the caller adds its own fields and closes it.
    auto begin_event = [&json](const Span& s, const char* phase, double ts) {
      json.BeginObject();
      json.Field("name", s.name);
      json.Field("cat", s.category);
      json.Field("ph", phase);
      json.FieldDouble("ts", ts, 3);
      json.Field("pid", 1);
      json.Field("tid", s.tid);
    };
    json.BeginObject();
    json.Field("displayTimeUnit", "ms");
    json.Key("traceEvents");
    json.BeginArray();
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Span& s : spans_) {
      if (s.async) {
        begin_event(s, "b", us(s.start));
        json.Field("id", s.id);
        json.EndObject();
        begin_event(s, "e", us(s.end));
        json.Field("id", s.id);
        json.EndObject();
      } else {
        begin_event(s, "X", us(s.start));
        json.FieldDouble("dur", us(s.end) - us(s.start), 3);
        json.Key("args");
        json.BeginObject();
        json.Field("id", s.id);
        json.Field("parent", s.parent);
        json.EndObject();
        json.EndObject();
      }
    }
    json.EndArray();
    json.EndObject();
    return json.WriteToFile(path);
  }

 private:
  const Clock::time_point origin_;
  std::atomic<int64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// ---- Timing decorator over the public Executor interface ----------------------------------------

enum Phase { kForward = 0, kBackward = 1 };

// Forwards every Executor call to the executor ExecutorFactory built. While
// recording, it times each Execute into the current phase's bucket and logs
// a span under the current parent span; otherwise Execute is a plain
// forward. PrepareView (once, at model construction) is always timed: it is
// part of the setup_s breakdown.
class TimingExecutor final : public Executor {
 public:
  TimingExecutor(std::shared_ptr<const Executor> inner, SpanLog* log)
      : inner_(std::move(inner)), log_(log) {}

  RunResult Execute(const GirGraph& gir, const GraphView& view, const FeatureMap& features,
                    const RunContext& ctx) const override {
    if (!recording_.load(std::memory_order_relaxed)) {
      return inner_->Execute(gir, view, features, ctx);
    }
    const int phase = phase_.load(std::memory_order_relaxed);
    const Clock::time_point start = Clock::now();
    RunResult result = inner_->Execute(gir, view, features, ctx);
    const Clock::time_point end = Clock::now();
    ns_[phase].fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count(),
                         std::memory_order_relaxed);
    calls_[phase].fetch_add(1, std::memory_order_relaxed);
    log_->Add({phase == kForward ? "exec.fwd" : "exec.bwd", "exec", start, end, tid_.load(),
               log_->NextId(), parent_.load(std::memory_order_relaxed), false});
    return result;
  }

  GraphView PrepareView(const Graph& graph) const override {
    const Clock::time_point start = Clock::now();
    GraphView view = inner_->PrepareView(graph);
    prepare_ms_ += MsSince(start);
    return view;
  }

  const char* name() const override { return inner_->name(); }
  bool saves_intermediates() const override { return inner_->saves_intermediates(); }
  const Executor* recovery_fallback() const override { return inner_->recovery_fallback(); }

  void SetRecording(bool on) { recording_.store(on, std::memory_order_relaxed); }
  void SetPhase(Phase phase, int64_t parent_span) {
    phase_.store(phase, std::memory_order_relaxed);
    parent_.store(parent_span, std::memory_order_relaxed);
  }
  void SetSpanThread(int tid) { tid_.store(tid); }

  double ms(Phase phase) const { return static_cast<double>(ns_[phase].load()) * 1e-6; }
  int64_t calls() const { return calls_[kForward].load() + calls_[kBackward].load(); }
  double prepare_ms() const { return prepare_ms_; }

 private:
  const std::shared_ptr<const Executor> inner_;
  SpanLog* const log_;
  std::atomic<bool> recording_{false};
  std::atomic<int> phase_{kForward};
  std::atomic<int64_t> parent_{-1};
  std::atomic<int> tid_{1};
  mutable std::atomic<int64_t> ns_[2] = {0, 0};
  mutable std::atomic<int64_t> calls_[2] = {0, 0};
  mutable double prepare_ms_ = 0.0;  // Written once, on the constructing thread.
};

// ---- Counter snapshots --------------------------------------------------------------------------

struct Counts {
  uint64_t alloc_requests = 0;
  uint64_t fresh_mallocs = 0;
  uint64_t pool_hits = 0;
  uint64_t plan_misses = 0;
  int64_t units_tiled = 0;
  int64_t units_untiled = 0;
  int64_t edge_visits = 0;
  int64_t segments = 0;
  int64_t simt_launches = 0;
  int64_t simt_blocks = 0;
  int64_t halo_bytes = 0;
  int64_t halo_messages = 0;

  Counts operator+(const Counts& o) const {
    return {alloc_requests + o.alloc_requests, fresh_mallocs + o.fresh_mallocs,
            pool_hits + o.pool_hits,           plan_misses + o.plan_misses,
            units_tiled + o.units_tiled,       units_untiled + o.units_untiled,
            edge_visits + o.edge_visits,       segments + o.segments,
            simt_launches + o.simt_launches,   simt_blocks + o.simt_blocks,
            halo_bytes + o.halo_bytes,         halo_messages + o.halo_messages};
  }
  Counts operator-(const Counts& o) const {
    return {alloc_requests - o.alloc_requests, fresh_mallocs - o.fresh_mallocs,
            pool_hits - o.pool_hits,           plan_misses - o.plan_misses,
            units_tiled - o.units_tiled,       units_untiled - o.units_untiled,
            edge_visits - o.edge_visits,       segments - o.segments,
            simt_launches - o.simt_launches,   simt_blocks - o.simt_blocks,
            halo_bytes - o.halo_bytes,         halo_messages - o.halo_messages};
  }
};

// Registry handles resolved once; reading them is a few relaxed loads.
class CounterReader {
 public:
  CounterReader() {
    metrics::MetricsRegistry& r = metrics::MetricsRegistry::Get();
    tiled_ = r.GetCounter("seastar_tiling_units_tiled_total");
    untiled_ = r.GetCounter("seastar_tiling_units_untiled_total");
    edge_visits_ = r.GetCounter("seastar_tiling_edge_visits_total");
    segments_ = r.GetCounter("seastar_tiling_segments_total");
    halo_bytes_ = r.GetCounter("seastar_shard_halo_bytes_total");
    halo_messages_ = r.GetCounter("seastar_shard_halo_messages_total");
    for (int i = 0; i <= static_cast<int>(BlockSchedule::kChunkedDynamic); ++i) {
      const std::string label = std::string("{schedule=\"") +
                                BlockScheduleName(static_cast<BlockSchedule>(i)) + "\"}";
      launches_.push_back(r.GetCounter("seastar_simt_launches_total" + label));
      blocks_.push_back(r.GetCounter("seastar_simt_blocks_total" + label));
    }
  }

  Counts Read() const {
    const TensorAllocator& alloc = TensorAllocator::Get();
    Counts c;
    c.alloc_requests = alloc.total_allocations();
    c.fresh_mallocs = alloc.fresh_mallocs();
    c.pool_hits = alloc.pool_hits();
    c.plan_misses = PlanCache::Get().misses();
    c.units_tiled = tiled_->value();
    c.units_untiled = untiled_->value();
    c.edge_visits = edge_visits_->value();
    c.segments = segments_->value();
    for (const metrics::Counter* counter : launches_) {
      c.simt_launches += counter->value();
    }
    for (const metrics::Counter* counter : blocks_) {
      c.simt_blocks += counter->value();
    }
    c.halo_bytes = halo_bytes_->value();
    c.halo_messages = halo_messages_->value();
    return c;
  }

 private:
  metrics::Counter* tiled_;
  metrics::Counter* untiled_;
  metrics::Counter* edge_visits_;
  metrics::Counter* segments_;
  metrics::Counter* halo_bytes_;
  metrics::Counter* halo_messages_;
  std::vector<metrics::Counter*> launches_;
  std::vector<metrics::Counter*> blocks_;
};

// ---- Result line --------------------------------------------------------------------------------

// Flat name -> value maps plus check outcomes, printed as one JSON line.
struct Report {
  std::vector<std::pair<std::string, double>> setup;     // setup_s breakdown.
  std::vector<std::pair<std::string, double>> metrics;   // Measured-window metrics.
  std::vector<std::pair<std::string, double>> counts;    // Determinism-checked counts.
  std::vector<std::pair<std::string, double>> graph;     // Sizes (second-seed check).
  std::vector<std::string> failed_checks;
  std::vector<std::string> varying_counts;  // Counters that did not repeat.
  int64_t attempted = 0;
  int64_t failed = 0;

  void Check(const std::string& name, bool ok, const std::string& detail) {
    if (!ok) {
      failed_checks.push_back(name);
      std::fprintf(stderr, "perfbench: check %s FAILED: %s\n", name.c_str(), detail.c_str());
    }
  }

  void Vary(const std::string& name) {
    if (std::find(varying_counts.begin(), varying_counts.end(), name) == varying_counts.end()) {
      varying_counts.push_back(name);
      std::fprintf(stderr, "perfbench: counter %s differs between steady epochs\n", name.c_str());
    }
  }

  // One line on stdout: JsonWriter's layout with its newlines removed
  // (string values escape theirs).
  void Print() const {
    JsonWriter json;
    auto object = [&json](const char* key,
                          const std::vector<std::pair<std::string, double>>& entries) {
      json.Key(key);
      json.BeginObject();
      for (const auto& [name, value] : entries) {
        json.FieldDouble(name, value);
      }
      json.EndObject();
    };
    auto list = [&json](const char* key, const std::vector<std::string>& names) {
      json.Key(key);
      json.BeginArray();
      for (const std::string& name : names) {
        json.String(name);
      }
      json.EndArray();
    };
    json.BeginObject();
    json.Field("attempted", attempted);
    json.Field("failed", failed);
    list("checks_failed", failed_checks);
    list("varying_counts", varying_counts);
    object("setup", setup);
    object("metrics", metrics);
    object("counts", counts);
    object("graph", graph);
    json.EndObject();
    std::string line = json.str();
    std::erase(line, '\n');
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
  }
};

// ---- Host speed -------------------------------------------------------------------------------

// The benchmark runs on shared virtual machines whose speed for this kind of
// code swings by up to 2x over seconds to minutes: a scalar dependency chain
// keeps its speed (the clock is steady), while vectorized and memory-bound
// loops slow down when a co-tenant shares the core or the caches. That moves
// every wall-clock figure of a run alike. ReferenceKernel is a fixed
// computation of the harness's own, not the program's: timed next to the
// workload, it gives the host's current slowdown against a nominal speed,
// and single-threaded times are divided by that slowdown, so that they read
// as milliseconds on a host of nominal speed. It does what the training
// workloads do, on one thread, in ~85 ms: gather-sums over random graphs with
// a run-time feature width (irregular reads, as in aggregation), one whose
// features fit in a core's L2 cache and one whose 16 MB do not, and a dense
// matrix product. Both cache levels matter: a reference with only the
// cache-resident part suffered about twice as much from contention as the
// workloads did, one with only the large gather less than they did.
class ReferenceKernel {
 public:
  ReferenceKernel() : small_(16384, 16), large_(131072, 8) {
    a_.assign(static_cast<size_t>(kRows * kInner), 0.5f);
    b_.assign(static_cast<size_t>(kInner * kInner), 0.25f);
    c_.assign(static_cast<size_t>(kRows * kInner), 0.0f);
    RunMs();  // Untimed first run: page faults and cold caches.
  }

  double RunMs() {
    const Clock::time_point start = Clock::now();
    small_.Run();
    for (int rep = 0; rep < kProducts; ++rep) {
      for (int64_t i = 0; i < kRows; ++i) {
        for (int64_t k = 0; k < kInner; ++k) {
          const float a = a_[i * kInner + k];
          for (int64_t j = 0; j < kInner; ++j) {
            c_[i * kInner + j] += a * b_[k * kInner + j];
          }
        }
      }
    }
    large_.Run();
    sink_ = c_[kInner + 1];
    return MsSince(start);
  }

 private:
  // Sums each vertex's neighbours' feature rows.
  class Gather {
   public:
    Gather(int64_t vertices, int64_t degree) : vertices_(vertices), degree_(degree) {
      Rng rng(0x5eed + static_cast<uint64_t>(vertices));
      neighbors_.resize(static_cast<size_t>(vertices_ * degree_));
      for (int32_t& n : neighbors_) {
        n = static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(vertices_)));
      }
      features_.resize(static_cast<size_t>(vertices_ * width_));
      for (float& f : features_) {
        f = static_cast<float>(rng.NextDouble());
      }
      sums_.resize(features_.size());
    }

    // Not inlined, so the sizes stay run-time values, as the workloads' are.
    [[gnu::noinline]] void Run() {
      for (int64_t v = 0; v < vertices_; ++v) {
        float* out = &sums_[static_cast<size_t>(v * width_)];
        std::fill(out, out + width_, 0.0f);
        for (int64_t e = 0; e < degree_; ++e) {
          const float* in =
              &features_[static_cast<size_t>(neighbors_[v * degree_ + e] * width_)];
          for (int64_t k = 0; k < width_; ++k) {
            out[k] += in[k];
          }
        }
      }
      sink_ = sums_[static_cast<size_t>(vertices_ / 2)];
    }

   private:
    int64_t vertices_;
    int64_t degree_;
    int64_t width_ = 32;
    std::vector<int32_t> neighbors_;
    std::vector<float> features_, sums_;
    volatile float sink_ = 0.0f;
  };

  static constexpr int64_t kRows = 256;
  static constexpr int64_t kInner = 128;
  static constexpr int kProducts = 4;
  Gather small_;
  Gather large_;
  std::vector<float> a_, b_, c_;
  volatile float sink_ = 0.0f;
};

// ReferenceKernel's median time on the 4-vCPU virtual machine the benchmark
// was sized on. Any constant would do; this one keeps normalized times close
// to that machine's raw ones.
constexpr double kReferenceNominalMs = 85.0;
// Reference runs before and after each setup.
constexpr int kReferenceRunsPerSide = 3;

// Reference-kernel samples, in the order taken. A slowdown is a sample time
// over the nominal time: 1.0 on a host of nominal speed, 1.3 on one 30%
// slower.
class HostSpeed {
 public:
  explicit HostSpeed(ReferenceKernel& kernel) : kernel_(kernel) {}

  void Sample(int runs = 1) {
    for (int i = 0; i < runs; ++i) {
      samples_.push_back(kernel_.RunMs());
    }
  }
  size_t samples() const { return samples_.size(); }
  // Median over all samples.
  double slowdown() const { return Percentile(samples_, 0.50) / kReferenceNominalMs; }
  // From the mean of samples `i` and `i + 1`: the host around whatever ran
  // between them.
  double SlowdownBetween(size_t i) const {
    return 0.5 * (samples_[i] + samples_[i + 1]) / kReferenceNominalMs;
  }

 private:
  ReferenceKernel& kernel_;
  std::vector<double> samples_;
};

// ---- Shared setup -------------------------------------------------------------------------------

enum class Mode {
  kMain,   // Set up, warm up, measure, check.
  kSetup,  // Set up and run to the counted epoch only.
  kProbe,  // Set up and run kProbeEpochs untimed epochs, for the counters only.
};

struct Options {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Mode mode = Mode::kMain;
  std::string trace_out;
};

Dataset BuildDataset(const Options& opt) {
  DatasetOptions options;
  options.seed = opt.seed;
  options.max_feature_dim = kMaxFeatureDim;
  return MakeDataset(*FindDataset(opt.workload->dataset), options);
}

std::unique_ptr<GnnModel> MakeModel(const Workload& w, const Dataset& data, uint64_t seed,
                                    std::shared_ptr<const Executor> executor) {
  if (std::string(w.model) == "gat") {
    GatConfig config;
    config.seed = seed * 0x9e3779b97f4a7c15ull + 0x6a7;
    return std::make_unique<Gat>(data, config, std::move(executor));
  }
  GcnConfig config;
  config.hidden_dim = 16;
  config.seed = seed * 0x9e3779b97f4a7c15ull + 0x6c0;
  return std::make_unique<Gcn>(data, config, std::move(executor));
}

std::shared_ptr<const Executor> CreateExecutor(const std::string& spec) {
  StatusOr<std::unique_ptr<Executor>> executor = ExecutorFactory::Create(spec);
  if (!executor) {
    std::fprintf(stderr, "perfbench: cannot create executor '%s': %s\n", spec.c_str(),
                 executor.status().ToString().c_str());
    std::exit(1);
  }
  return std::shared_ptr<const Executor>(std::move(*executor));
}

// A second model with `spec`'s executor and `source`'s parameter values.
std::unique_ptr<GnnModel> CloneWithExecutor(const Workload& w, const Dataset& data, uint64_t seed,
                                            const GnnModel& source, const std::string& spec) {
  std::unique_ptr<GnnModel> copy = MakeModel(w, data, seed, CreateExecutor(spec));
  std::vector<Var> from = source.Parameters();
  std::vector<Var> to = copy->Parameters();
  SEASTAR_CHECK_EQ(from.size(), to.size());
  for (size_t i = 0; i < from.size(); ++i) {
    SEASTAR_CHECK(from[i].value().shape() == to[i].value().shape());
    std::memcpy(to[i].mutable_value().data(), from[i].value().data(), from[i].value().nbytes());
  }
  return copy;
}

// max |a - b| relative to max(1, max |b|); infinity on a shape mismatch.
double RelativeError(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) {
    return INFINITY;
  }
  double max_diff = 0.0;
  double max_ref = 1.0;
  for (int64_t i = 0; i < a.numel(); ++i) {
    max_diff = std::max(max_diff, std::fabs(static_cast<double>(a.data()[i]) - b.data()[i]));
    max_ref = std::max(max_ref, std::fabs(static_cast<double>(b.data()[i])));
  }
  return std::isfinite(max_diff) ? max_diff / max_ref : INFINITY;
}

bool BitEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() && std::memcmp(a.data(), b.data(), a.nbytes()) == 0;
}

// Eval-mode logits of `model` against an independent executor (dgl), and,
// for a sharded model, bit-for-bit against the whole-graph seastar executor.
void CheckLogits(const Options& opt, const Dataset& data, GnnModel& model, Report& report) {
  const Workload& w = *opt.workload;
  const Tensor logits = model.Forward(/*training=*/false).value().Clone();
  std::unique_ptr<GnnModel> dgl = CloneWithExecutor(w, data, opt.seed, model, "dgl");
  const double err = RelativeError(logits, dgl->Forward(false).value());
  char detail[128];
  std::snprintf(detail, sizeof(detail), "max rel err %.3g vs dgl (tolerance %.1g)", err,
                kDglRelTol);
  std::fprintf(stderr, "perfbench: eval logits: %s\n", detail);
  report.Check("eval_logits_match_dgl", err <= kDglRelTol, detail);
  if (std::string(model.session().executor().name()) == "sharded") {
    std::unique_ptr<GnnModel> whole = CloneWithExecutor(w, data, opt.seed, model, "seastar");
    report.Check("sharded_logits_bit_equal_seastar",
                 BitEqual(logits, whole->Forward(false).value()),
                 "sharded eval logits differ from seastar's");
  }
}

// The parts of an operation may not exceed it (beyond rounding), and what
// they leave unattributed must stay under 5% of it.
bool AttributionHolds(double unattributed_pct) {
  return unattributed_pct > -1e-6 && unattributed_pct < 5.0;
}

// ---- Training -----------------------------------------------------------------------------------

struct EpochSample {
  double total_ms = 0.0;
  double forward_ms = 0.0;
  double loss_ms = 0.0;
  double backward_ms = 0.0;
  double optimizer_ms = 0.0;
  double exec_forward_ms = 0.0;   // Recorded epochs: time inside Execute
  double exec_backward_ms = 0.0;  // while the phase was set to forward/backward.
  float loss = 0.0f;

  // Every time divided by `slowdown`.
  EpochSample AtNominalSpeed(double slowdown) const {
    EpochSample s = *this;
    for (double* ms : {&s.total_ms, &s.forward_ms, &s.loss_ms, &s.backward_ms, &s.optimizer_ms,
                       &s.exec_forward_ms, &s.exec_backward_ms}) {
      *ms /= slowdown;
    }
    return s;
  }
};

class Trainer {
 public:
  Trainer(GnnModel& model, const Dataset& data, TimingExecutor& timing, SpanLog& log)
      : model_(model), data_(data), timing_(timing), log_(log), adam_(model.Parameters(), 0.01f) {}

  // One forward + loss + backward + optimizer step, each phase bracketed by
  // a clock read. A recorded epoch also turns on the executor decorator's
  // timing and logs the phases as spans.
  EpochSample Epoch(bool record) {
    const int64_t epoch_id = record ? log_.NextId() : -1;
    timing_.SetRecording(record);
    const double exec_forward_before = timing_.ms(kForward);
    const double exec_backward_before = timing_.ms(kBackward);
    EpochSample s;
    const Clock::time_point t0 = Clock::now();
    {
      timing_.SetPhase(kForward, epoch_id);
      Var logits = model_.Forward(/*training=*/true);
      const Clock::time_point t1 = Clock::now();
      Var loss = ag::NllLoss(ag::LogSoftmax(logits), data_.labels, data_.train_mask);
      const Clock::time_point t2 = Clock::now();
      timing_.SetPhase(kBackward, epoch_id);
      Backward(loss, Tensor::Ones({1}));
      const Clock::time_point t3 = Clock::now();
      adam_.Step();
      adam_.ZeroGrad();
      const Clock::time_point t4 = Clock::now();
      s.loss = loss.value().at(0);
      s.forward_ms = Ms(t0, t1);
      s.loss_ms = Ms(t1, t2);
      s.backward_ms = Ms(t2, t3);
      s.optimizer_ms = Ms(t3, t4);
      if (record) {
        log_.Add({"forward", "tensor", t0, t1, 1, log_.NextId(), epoch_id, false});
        log_.Add({"loss", "tensor", t1, t2, 1, log_.NextId(), epoch_id, false});
        log_.Add({"backward", "tensor", t2, t3, 1, log_.NextId(), epoch_id, false});
        log_.Add({"optimizer", "core", t3, t4, 1, log_.NextId(), epoch_id, false});
      }
      // The tape is released here, when logits and loss leave scope: that
      // teardown falls in the unattributed remainder of the epoch.
    }
    timing_.SetRecording(false);
    const Clock::time_point end = Clock::now();
    s.total_ms = Ms(t0, end);
    s.exec_forward_ms = timing_.ms(kForward) - exec_forward_before;
    s.exec_backward_ms = timing_.ms(kBackward) - exec_backward_before;
    if (record) {
      log_.Add({"epoch", "core", t0, end, 1, epoch_id, -1, false});
    }
    return s;
  }

 private:
  GnnModel& model_;
  const Dataset& data_;
  TimingExecutor& timing_;
  SpanLog& log_;
  Adam adam_;
};

// Counters summed over `ops` operations, as per-operation values under
// their per-layer metric names.
std::vector<std::pair<std::string, double>> CountMetrics(const Counts& c, double ops) {
  auto per_op = [ops](auto v) { return static_cast<double>(v) / ops; };
  return {
      {"exec.plan_misses_per_epoch", per_op(c.plan_misses)},
      {"exec.tiling.units_tiled", per_op(c.units_tiled)},
      {"exec.tiling.units_untiled", per_op(c.units_untiled)},
      {"exec.tiling.edge_visits", per_op(c.edge_visits)},
      {"exec.tiling.segments", per_op(c.segments)},
      {"parallel.simt.launches", per_op(c.simt_launches)},
      {"parallel.simt.blocks", per_op(c.simt_blocks)},
      {"exec.shard.halo_bytes", per_op(c.halo_bytes)},
      {"exec.shard.halo_messages", per_op(c.halo_messages)},
      {"tensor.fresh_mallocs", per_op(c.fresh_mallocs)},
      {"tensor.alloc_requests", per_op(c.alloc_requests)},
      {"tensor.pool_hit_ratio", c.alloc_requests == 0 ? 1.0
                                                      : static_cast<double>(c.pool_hits) /
                                                            static_cast<double>(c.alloc_requests)},
  };
}

// Per-layer counter means over the steady epochs (from kCountedEpoch on).
// Nothing in a steady epoch should depend on timing, so each counter should
// repeat exactly; those that do not are named in the report (the
// determinism self-check; run.py also compares processes, through the
// kCountedEpoch counters this leaves in report.counts).
std::vector<std::pair<std::string, double>> SteadyCounts(const std::vector<Counts>& epoch_counts,
                                                         Report& report) {
  const std::vector<std::pair<std::string, double>> counted =
      CountMetrics(epoch_counts[kCountedEpoch], 1.0);
  Counts steady_sum;
  for (size_t e = kCountedEpoch; e < epoch_counts.size(); ++e) {
    steady_sum = steady_sum + epoch_counts[e];
    const std::vector<std::pair<std::string, double>> current = CountMetrics(epoch_counts[e], 1.0);
    for (size_t i = 0; i < counted.size(); ++i) {
      if (current[i].second != counted[i].second) {
        report.Vary(counted[i].first);
      }
    }
  }
  report.counts = counted;
  return CountMetrics(steady_sum, static_cast<double>(epoch_counts.size() - kCountedEpoch));
}

int RunTraining(const Options& opt) {
  const Workload& w = *opt.workload;
  Report report;
  SpanLog log;
  CounterReader counters;
  TensorAllocator& allocator = TensorAllocator::Get();
  ReferenceKernel reference_kernel;
  HostSpeed setup_speed(reference_kernel);
  setup_speed.Sample(kReferenceRunsPerSide);

  // ---- Setup: dataset, model construction (+ PrepareView), cold epoch.
  const Clock::time_point setup_start = Clock::now();
  Dataset data = BuildDataset(opt);
  const double build_ms = MsSince(setup_start);

  const Counts before_model = counters.Read();
  const Clock::time_point model_start = Clock::now();
  auto timing = std::make_shared<TimingExecutor>(CreateExecutor(w.executor), &log);
  std::unique_ptr<GnnModel> model = MakeModel(w, data, opt.seed, timing);
  const double construct_ms = MsSince(model_start);
  Trainer trainer(*model, data, *timing, log);

  std::vector<float> losses;
  std::vector<Counts> epoch_counts;
  auto run_epoch = [&](bool record) {
    const Counts before = counters.Read();
    EpochSample s = trainer.Epoch(record);
    epoch_counts.push_back(counters.Read() - before);
    losses.push_back(s.loss);
    return s;
  };
  const EpochSample cold = run_epoch(false);
  const double setup_s = std::chrono::duration<double>(Clock::now() - setup_start).count();
  const uint64_t setup_plan_misses = (counters.Read() - before_model).plan_misses;
  setup_speed.Sample(kReferenceRunsPerSide);
  const double setup_host = setup_speed.slowdown();
  report.setup = {
      {"setup_s", setup_s / setup_host},
      {"graph.build_ms", build_ms / setup_host},
      {"gir.compile_ms", (construct_ms - timing->prepare_ms()) / setup_host},
      {"exec.prepare_ms", timing->prepare_ms() / setup_host},
      {"core.cold_epoch_ms", cold.total_ms / setup_host},
      {"exec.plan_misses", static_cast<double>(setup_plan_misses)},
      {"bench.setup_host_slowdown", setup_host},
  };
  report.graph = {{"vertices", static_cast<double>(data.graph.num_vertices())},
                  {"edges", static_cast<double>(data.graph.num_edges())}};

  if (opt.mode != Mode::kMain) {
    // Setup runs stop at the counted epoch; probe runs go on, untimed, so
    // that a counter which varies only now and then gets the chance to.
    const int epochs = opt.mode == Mode::kProbe ? kProbeEpochs : kCountedEpoch + 1;
    while (static_cast<int>(losses.size()) < epochs) {
      run_epoch(false);
    }
    SteadyCounts(epoch_counts, report);
    report.counts.push_back({"peak_mem_mb", MegaBytes(allocator.peak_bytes())});
    report.Check("loss_finite",
                 std::all_of(losses.begin(), losses.end(), [](float l) { return std::isfinite(l); }),
                 "non-finite loss before the timed window");
    report.attempted = static_cast<int64_t>(losses.size());
    report.failed = report.failed_checks.empty() ? 0 : report.attempted;
    report.Print();
    return 0;
  }

  // ---- Warm-up (neither setup nor timed).
  const Clock::time_point warm_start = Clock::now();
  while (static_cast<int>(losses.size()) <= kWarmupEpochs ||
         MsSince(warm_start) < kWarmupSeconds * 1e3) {
    run_epoch(false);
  }

  // ---- Timed window. Reference runs open it and follow every epoch; each
  // epoch's times are then divided by the slowdown of the reference runs
  // just before and just after it.
  struct TimedEpoch {
    EpochSample sample;
    size_t reference_before;  // Index of the reference run just before it.
    bool recorded;
  };
  std::vector<TimedEpoch> timed;
  HostSpeed window_speed(reference_kernel);
  window_speed.Sample();
  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point timed_start = Clock::now();
  for (int64_t i = 0; timed.size() < 5 || MsSince(timed_start) < opt.seconds * 1e3; ++i) {
    const bool record = opt.trace && i % 2 == 0;
    timed.push_back({run_epoch(record), window_speed.samples() - 1, record});
    window_speed.Sample();
  }
  const double timed_wall_s = MsSince(timed_start) * 1e-3;
  const double cpu_util = (ProcessCpuSeconds() - cpu_start) / timed_wall_s;
  const double peak_mb = MegaBytes(allocator.peak_bytes());
  const int64_t epochs = static_cast<int64_t>(timed.size());

  // From here on every epoch time is at nominal host speed.
  std::vector<EpochSample> plain;
  std::vector<EpochSample> recorded;
  std::vector<double> plain_raw_ms;
  for (const TimedEpoch& t : timed) {
    if (!t.recorded) {
      plain_raw_ms.push_back(t.sample.total_ms);
    }
    (t.recorded ? recorded : plain)
        .push_back(t.sample.AtNominalSpeed(window_speed.SlowdownBetween(t.reference_before)));
  }

  // ---- End-to-end metrics (unrecorded epochs only).
  std::vector<double> plain_ms;
  double epochs_ms = 0.0;
  for (const EpochSample& s : plain) {
    plain_ms.push_back(s.total_ms);
  }
  for (const std::vector<EpochSample>* samples : {&plain, &recorded}) {
    for (const EpochSample& s : *samples) {
      epochs_ms += s.total_ms;
    }
  }
  const double p50_plain = Percentile(plain_ms, 0.50);
  report.metrics = {
      {"op_ms_p50", p50_plain},
      {"op_ms_p99", Percentile(plain_ms, 0.99)},
      {"throughput_per_s", static_cast<double>(epochs) * 1e3 / epochs_ms},
      {"peak_mem_mb", peak_mb},
      {"op_ms_p50_raw", Percentile(plain_raw_ms, 0.50)},
      {"bench.host_slowdown", window_speed.slowdown()},
      {"parallel.cpu_util", cpu_util},
  };
  std::fprintf(stderr,
               "perfbench: %lld epochs; median %.3f ms at nominal host speed, %.3f ms as "
               "measured; host slowdown %.3f\n",
               static_cast<long long>(epochs), p50_plain, Percentile(plain_raw_ms, 0.50),
               window_speed.slowdown());

  // ---- Per-layer metrics (recorded epochs).
  if (opt.trace) {
    const double n = static_cast<double>(recorded.size());
    std::vector<double> recorded_ms;
    double total = 0, fwd = 0, loss = 0, bwd = 0, optim = 0, exec_fwd = 0, exec_bwd = 0;
    // Each epoch's Execute time must lie inside the phase it was billed to:
    // an Execute billed to the wrong phase, or timed twice, breaks this.
    int64_t misbilled_epochs = 0;
    for (const EpochSample& s : recorded) {
      recorded_ms.push_back(s.total_ms);
      total += s.total_ms;
      fwd += s.forward_ms;
      loss += s.loss_ms;
      bwd += s.backward_ms;
      optim += s.optimizer_ms;
      exec_fwd += s.exec_forward_ms;
      exec_bwd += s.exec_backward_ms;
      if (!(s.exec_forward_ms > 0.0 && s.exec_forward_ms <= s.forward_ms &&
            s.exec_backward_ms > 0.0 && s.exec_backward_ms <= s.backward_ms)) {
        ++misbilled_epochs;
      }
    }
    // The phases (forward, loss, backward, optimizer) are the epoch's layers;
    // exec and dense time split forward and backward between them. The
    // remainder is everything else inside the epoch span.
    const double attributed = fwd + loss + bwd + optim;
    const double unattributed_pct = 100.0 * (total - attributed) / total;
    char misbilled[96];
    std::snprintf(misbilled, sizeof(misbilled),
                  "%lld of %zu recorded epochs have Execute time outside its phase",
                  static_cast<long long>(misbilled_epochs), recorded.size());
    report.Check("exec_time_within_phase", misbilled_epochs == 0, misbilled);
    const double p50_recorded = Percentile(recorded_ms, 0.50);
    report.metrics.insert(
        report.metrics.end(),
        {
            {"exec.fwd_ms", exec_fwd / n},
            {"exec.bwd_ms", exec_bwd / n},
            {"exec.calls", static_cast<double>(timing->calls()) / n},
            {"tensor.fwd_dense_ms", (fwd - exec_fwd) / n},
            {"tensor.bwd_dense_ms", (bwd - exec_bwd) / n},
            {"tensor.loss_ms", loss / n},
            {"core.optimizer_ms", optim / n},
            {"bench.attribution_base_ms", total / n},
            {"bench.unattributed_pct", unattributed_pct},
            {"bench.trace_overhead_pct", 100.0 * (p50_recorded - p50_plain) / p50_plain},
        });
    std::fprintf(stderr,
                 "perfbench: attribution over %zu recorded epochs (base %.3f ms/epoch): exec "
                 "%.3f + dense %.3f + loss %.3f + optimizer %.3f + unattributed %.3f ms (%.2f%%)\n",
                 recorded.size(), total / n, (exec_fwd + exec_bwd) / n,
                 (fwd - exec_fwd + bwd - exec_bwd) / n, loss / n, optim / n,
                 (total - attributed) / n, unattributed_pct);
    report.Check("attribution_sums_to_epoch", AttributionHolds(unattributed_pct),
                 "layer self times do not account for the epoch within 5%");
  }

  // ---- Counters.
  const std::vector<std::pair<std::string, double>> means = SteadyCounts(epoch_counts, report);
  report.metrics.insert(report.metrics.end(), means.begin(), means.end());
  report.counts.push_back({"peak_mem_mb", peak_mb});

  // ---- Correctness, outside the timed window.
  bool finite = true;
  for (float loss : losses) {
    finite = finite && std::isfinite(loss);
  }
  char detail[128];
  std::snprintf(detail, sizeof(detail), "first loss %.6g, last loss %.6g", losses.front(),
                losses.back());
  report.Check("loss_finite_and_falls", finite && losses.back() < losses.front(), detail);
  CheckLogits(opt, data, *model, report);

  if (opt.trace && !opt.trace_out.empty() && !log.WriteChromeTrace(opt.trace_out)) {
    report.Check("trace_written", false, "cannot write " + opt.trace_out);
  }
  report.attempted = epochs;
  report.failed = report.failed_checks.empty() ? 0 : epochs;
  report.Print();
  return 0;
}

// ---- Serving ------------------------------------------------------------------------------------

struct Arrival {
  double at_s;  // Scheduled send time, from the start of the open loop.
  std::vector<int32_t> vertices;
};

// Poisson arrivals at `rate` over `seconds`, each asking for 1..8 random
// vertices; generated before the loop starts, deterministic in `seed`. Every
// second of the schedule gets exactly rate x its length arrivals, placed
// uniformly at random: a Poisson process conditioned on its count per
// second, so the offered load is the same in every run and every segment,
// and only its timing depends on the seed.
std::vector<Arrival> MakeArrivals(uint64_t seed, double rate, double seconds,
                                  int64_t num_vertices) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x5e7e);
  std::vector<Arrival> arrivals;
  for (double start = 0.0; start < seconds; start += 1.0) {
    const double length = std::min(1.0, seconds - start);
    const size_t first = arrivals.size();
    const int64_t count = std::llround(rate * length);
    for (int64_t r = 0; r < count; ++r) {
      Arrival a;
      a.at_s = start + length * rng.NextDouble();
      const int vertices = 1 + static_cast<int>(rng.NextBounded(kMaxVerticesPerRequest));
      for (int i = 0; i < vertices; ++i) {
        a.vertices.push_back(
            static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(num_vertices))));
      }
      arrivals.push_back(std::move(a));
    }
    std::sort(arrivals.begin() + static_cast<std::ptrdiff_t>(first), arrivals.end(),
              [](const Arrival& x, const Arrival& y) { return x.at_s < y.at_s; });
  }
  return arrivals;
}

// The two CPUs the serving workload runs on: the serving thread's and the
// generator's. The server's thread takes the CPU its creator is pinned to
// when Start() runs, and the reference kernel runs on that CPU too: a
// co-tenant on a virtual machine slows one core, not the machine, so the
// host slowdown must be measured on the core that serves. {-1, -1} when the
// process may run on fewer than two CPUs (nothing is pinned then).
struct ServingCpus {
  int serving = -1;
  int generator = -1;
};

ServingCpus ChooseServingCpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) {
        cpus.push_back(cpu);
      }
    }
  }
  if (cpus.size() < 2) {
    return {};
  }
  // The last two: CPU 0 takes most device interrupts.
  return {cpus[cpus.size() - 1], cpus[cpus.size() - 2]};
}

// Pins the calling thread to `cpu`; a no-op for cpu < 0.
void PinCallingThread(int cpu) {
  if (cpu < 0) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0) {
    std::fprintf(stderr, "perfbench: cannot pin to CPU %d\n", cpu);
  }
}

struct Outcome {
  bool ok = false;
  bool degraded = false;
  StatusCode code = StatusCode::kOk;
  double late_ms = 0.0;   // Submit time minus scheduled time.
  size_t reference_before = 0;
  double latency_ms = 0.0;  // late_ms + total_ms: scheduled send -> response.
  double queue_ms = 0.0;
  double exec_ms = 0.0;
  int retries = 0;
};

int RunServing(const Options& opt) {
  const Workload& w = *opt.workload;
  Report report;
  SpanLog log;
  CounterReader counters;
  TensorAllocator& allocator = TensorAllocator::Get();
  // Set up on the serving CPU, so that the server's thread inherits it.
  const ServingCpus cpus = ChooseServingCpus();
  PinCallingThread(cpus.serving);
  ReferenceKernel reference_kernel;
  HostSpeed setup_speed(reference_kernel);
  setup_speed.Sample(kReferenceRunsPerSide);

  // ---- Setup: dataset, model, server Start (boot + cold forward), and a
  // closed-loop warm phase of full batches.
  const Clock::time_point setup_start = Clock::now();
  Dataset data = BuildDataset(opt);
  const double build_ms = MsSince(setup_start);
  const Counts before_model = counters.Read();
  const Clock::time_point model_start = Clock::now();
  auto timing = std::make_shared<TimingExecutor>(CreateExecutor(w.executor), &log);
  timing->SetSpanThread(2);
  std::unique_ptr<GnnModel> model = MakeModel(w, data, opt.seed, timing);
  const double construct_ms = MsSince(model_start);

  serve::ServeConfig config;
  config.max_batch_delay_ms = kServeBatchDelayMs;
  serve::Server server(*model, data, config);
  const Clock::time_point start_start = Clock::now();
  const Status started = server.Start();
  const double start_ms = MsSince(start_start);
  if (!started.ok()) {
    std::fprintf(stderr, "perfbench: server Start failed: %s\n", started.ToString().c_str());
    return 1;
  }
  // Up to here (model construction and Start's cold forward) nothing depends
  // on timing, so these are the counters the determinism self-check compares
  // between same-seed processes. The warm phase's batches form as requests
  // arrive, so its allocations (and the peak) vary with scheduling.
  const Counts through_start = counters.Read() - before_model;
  report.counts = {
      {"exec.plan_misses_through_start", static_cast<double>(through_start.plan_misses)},
      {"tensor.alloc_requests_through_start", static_cast<double>(through_start.alloc_requests)},
      {"tensor.fresh_mallocs_through_start", static_cast<double>(through_start.fresh_mallocs)},
      {"tensor.peak_mb_through_start", MegaBytes(allocator.peak_bytes())},
  };
  const int64_t num_vertices = data.graph.num_vertices();
  Rng warm_rng(opt.seed + 0x3a3a);
  for (int wave = 0; wave < kServeWarmWaves; ++wave) {
    std::vector<std::future<StatusOr<serve::InferenceResponse>>> futures;
    for (int i = 0; i < config.max_batch; ++i) {
      serve::InferenceRequest request;
      request.vertices.push_back(
          static_cast<int32_t>(warm_rng.NextBounded(static_cast<uint64_t>(num_vertices))));
      futures.push_back(server.Submit(std::move(request)));
    }
    for (auto& f : futures) {
      f.get();
    }
  }
  const double setup_s = std::chrono::duration<double>(Clock::now() - setup_start).count();
  const uint64_t setup_plan_misses = (counters.Read() - before_model).plan_misses;
  setup_speed.Sample(kReferenceRunsPerSide);
  const double setup_host = setup_speed.slowdown();
  report.setup = {
      {"setup_s", setup_s / setup_host},
      {"graph.build_ms", build_ms / setup_host},
      {"gir.compile_ms", (construct_ms - timing->prepare_ms()) / setup_host},
      {"exec.prepare_ms", timing->prepare_ms() / setup_host},
      {"core.cold_epoch_ms", start_ms / setup_host},
      {"exec.plan_misses", static_cast<double>(setup_plan_misses)},
      {"bench.setup_host_slowdown", setup_host},
  };
  report.graph = {{"vertices", static_cast<double>(data.graph.num_vertices())},
                  {"edges", static_cast<double>(data.graph.num_edges())}};
  if (opt.mode != Mode::kMain) {
    server.Shutdown();
    report.attempted = static_cast<int64_t>(kServeWarmWaves) * config.max_batch;
    report.Print();
    return 0;
  }

  // ---- Open loop: one generator thread (this one) submits on schedule and
  // collects answered futures between sends; nothing waits on a response.
  const double total_s = kServeWarmupSeconds + opt.seconds;
  const std::vector<Arrival> arrivals = MakeArrivals(opt.seed, kServeRate, total_s, num_vertices);
  struct InFlight {
    size_t index;
    double late_ms;
    size_t reference_before;  // Index of the reference run before its segment.
    std::future<StatusOr<serve::InferenceResponse>> future;
  };
  // With --trace=1, requests scheduled in even kTraceBlockSeconds blocks of
  // the timed window are recorded.
  auto recorded_block = [&](double at_s) {
    return opt.trace && at_s >= kServeWarmupSeconds &&
           static_cast<int64_t>((at_s - kServeWarmupSeconds) / kTraceBlockSeconds) % 2 == 0;
  };
  std::vector<Outcome> outcomes(arrivals.size());
  std::vector<std::pair<std::vector<int32_t>, Tensor>> samples;
  std::deque<InFlight> in_flight;
  size_t answered = 0;
  auto collect = [&](InFlight& f) {
    StatusOr<serve::InferenceResponse> response = f.future.get();
    Outcome& o = outcomes[f.index];
    o.late_ms = f.late_ms;
    o.reference_before = f.reference_before;
    if (response) {
      o.ok = true;
      o.degraded = response->degraded;
      o.latency_ms = f.late_ms + response->total_ms;
      o.queue_ms = response->queue_ms;
      o.exec_ms = response->exec_ms;
      o.retries = response->retries;
      if (!o.degraded && answered % kServeSampleEvery == 0) {
        samples.emplace_back(arrivals[f.index].vertices, response->logits);
      }
      ++answered;
    } else {
      o.code = response.status().code();
    }
  };
  HostSpeed window_speed(reference_kernel);
  const serve::ServerStats stats_before = server.stats();
  // Send time of schedule time `at_s`: the schedule runs on the clock, moved
  // later by every pause between segments.
  PinCallingThread(cpus.generator);
  const Clock::time_point loop_start = Clock::now();
  Clock::duration shift{0};
  auto due_at = [&](double at_s) {
    return loop_start + shift +
           std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(at_s));
  };
  auto drain = [&] {
    while (!in_flight.empty()) {
      collect(in_flight.front());
      in_flight.pop_front();
    }
  };
  // Segment of the timed window a schedule time falls in; -1 for warm-up.
  auto segment_of = [](double at_s) -> int64_t {
    return at_s < kServeWarmupSeconds
               ? -1
               : static_cast<int64_t>((at_s - kServeWarmupSeconds) / kServeSegmentSeconds);
  };
  // A pause between segments: drain, one reference run, and the schedule
  // resumes at `at_s` from now. The schedule's shift and the pause's CPU
  // time are left out of the window's figures.
  double pause_cpu_s = 0.0;
  auto pause_at = [&](double at_s) {
    const double cpu = ProcessCpuSeconds();
    drain();
    PinCallingThread(cpus.serving);
    window_speed.Sample();
    PinCallingThread(cpus.generator);
    pause_cpu_s += ProcessCpuSeconds() - cpu;
    shift += Clock::now() - due_at(at_s);
  };
  Clock::time_point window_start{};
  Clock::duration window_shift{0};  // `shift` when the window opened.
  Clock::time_point last_submit{};
  double cpu_start = 0.0;
  Counts window_counts_before;
  int64_t current_segment = -1;
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const int64_t segment = segment_of(arrivals[i].at_s);
    if (segment != current_segment) {
      pause_at(arrivals[i].at_s);
      if (current_segment < 0) {
        // The timed window opens after the first pause.
        pause_cpu_s = 0.0;
        window_start = due_at(arrivals[i].at_s);
        window_shift = shift;
        cpu_start = ProcessCpuSeconds();
        window_counts_before = counters.Read();
      }
      current_segment = segment;
    }
    const Clock::time_point due = due_at(arrivals[i].at_s);
    // Collect whatever finished while waiting for the send time. The wait
    // polls instead of sleeping: a sleeping thread on a virtual machine can
    // wake milliseconds late, and that lateness would count as latency.
    // Between polls it spins on pause instructions, which leave the core's
    // execution units to a sibling hyperthread that may be serving.
    while (Clock::now() < due) {
      while (!in_flight.empty() && in_flight.front().future.wait_for(std::chrono::seconds(0)) ==
                                       std::future_status::ready) {
        collect(in_flight.front());
        in_flight.pop_front();
      }
      for (int spin = 0; spin < kGeneratorPauses; ++spin) {
        CpuRelax();
      }
    }
    timing->SetRecording(recorded_block(arrivals[i].at_s));
    serve::InferenceRequest request;
    request.vertices = arrivals[i].vertices;
    request.deadline_ms = kServeDeadlineMs;
    last_submit = Clock::now();
    in_flight.push_back({i, Ms(due, last_submit), window_speed.samples() - 1,
                         server.Submit(std::move(request))});
  }
  drain();
  const Clock::time_point loop_end = Clock::now();
  PinCallingThread(cpus.serving);
  timing->SetRecording(false);
  // The window's wall time: from its first send to its last response, with
  // the schedule's shifts by the pauses left out.
  const double paused_ms = std::chrono::duration<double, std::milli>(shift - window_shift).count();
  const double window_wall_s = (Ms(window_start, loop_end) - paused_ms) * 1e-3;
  const double cpu_util = (ProcessCpuSeconds() - cpu_start - pause_cpu_s) / window_wall_s;
  const Counts window_counts = counters.Read() - window_counts_before;
  const serve::ServerStats stats_after = server.stats();
  const double peak_mb = MegaBytes(allocator.peak_bytes());
  window_speed.Sample();
  server.Shutdown();

  // ---- Metrics over requests scheduled in the timed window. Latencies are
  // divided by the host slowdown around their segment, as training epochs
  // are; the latency as measured is reported beside them.
  std::vector<double> latency_plain, latency_recorded, latency_plain_raw, late, queue, exec;
  double latency_sum = 0.0, parts_sum = 0.0;
  int64_t attempted = 0, fresh_in_deadline = 0, shed = 0, expired = 0, degraded = 0,
          other_failed = 0, retries = 0;
  for (size_t i = 0; i < arrivals.size(); ++i) {
    if (arrivals[i].at_s < kServeWarmupSeconds) {
      continue;
    }
    const Outcome& o = outcomes[i];
    ++attempted;
    late.push_back(o.late_ms);
    retries += o.retries;
    if (!o.ok) {
      if (o.code == StatusCode::kResourceExhausted) {
        ++shed;
      } else if (o.code == StatusCode::kDeadlineExceeded) {
        ++expired;
      } else {
        ++other_failed;
      }
      continue;
    }
    if (o.degraded) {
      ++degraded;
      continue;
    }
    const double nominal_ms = o.latency_ms / window_speed.SlowdownBetween(o.reference_before);
    if (recorded_block(arrivals[i].at_s)) {
      latency_recorded.push_back(nominal_ms);
    } else {
      latency_plain.push_back(nominal_ms);
      latency_plain_raw.push_back(o.latency_ms);
    }
    queue.push_back(o.queue_ms);
    exec.push_back(o.exec_ms);
    latency_sum += o.latency_ms;
    parts_sum += o.late_ms + o.queue_ms + o.exec_ms;
    if (o.latency_ms <= kServeDeadlineMs) {
      ++fresh_in_deadline;
    }
  }
  // Open-loop validity: the generator kept to its schedule. The achieved
  // rate is the window's requests over the span their submits took, pauses
  // between segments left out; the offered rate the same count over the span
  // they were scheduled in.
  const double late_p99 = Percentile(late, 0.99);
  const double achieved_ratio = (arrivals.back().at_s - kServeWarmupSeconds) * 1e3 /
                                (Ms(window_start, last_submit) - paused_ms);
  const bool open_loop_valid =
      late_p99 <= kMaxGenLateP99Ms && achieved_ratio >= kMinAchievedRateRatio;
  if (!open_loop_valid) {
    std::fprintf(stderr,
                 "perfbench: generator fell behind (submit lateness p99 %.3f ms, achieved/offered "
                 "rate %.4f); latency of this run is not valid, every request counts as failed\n",
                 late_p99, achieved_ratio);
  }
  const int64_t batches = stats_after.batches - stats_before.batches;
  const int64_t submitted = stats_after.submitted - stats_before.submitted;
  const int64_t answered_all = (stats_after.served - stats_before.served) +
                               (stats_after.degraded - stats_before.degraded);
  const double n = static_cast<double>(std::max<int64_t>(attempted, 1));
  const double p50_plain = Percentile(latency_plain, 0.50);
  report.metrics = {
      {"op_ms_p50", p50_plain},
      {"throughput_per_s", static_cast<double>(fresh_in_deadline) / window_wall_s},
      {"peak_mem_mb", peak_mb},
      {"op_ms_p50_raw", Percentile(latency_plain_raw, 0.50)},
      {"bench.host_slowdown", window_speed.slowdown()},
      {"parallel.cpu_util", cpu_util},
      {"op_ms_p99", Percentile(latency_plain, 0.99)},
      {"bench.gen_late_ms_p99", late_p99},
      {"bench.achieved_rate_ratio", achieved_ratio},
  };
  std::fprintf(stderr,
               "perfbench: %lld requests in %zu segments; median latency %.3f ms at nominal host "
               "speed, %.3f ms as measured; host slowdown %.3f\n",
               static_cast<long long>(attempted), window_speed.samples() - 1, p50_plain,
               Percentile(latency_plain_raw, 0.50), window_speed.slowdown());
  if (opt.trace) {
    // Latency from the scheduled send = generator lateness + queue +
    // execution; the remainder is admission and fulfillment glue.
    const double unattributed_pct =
        latency_sum > 0.0 ? 100.0 * (latency_sum - parts_sum) / latency_sum : 0.0;
    report.Check("attribution_sums_to_latency", AttributionHolds(unattributed_pct),
                 "lateness + queue + execution do not account for the latency within 5%");
    const double requests_recorded = static_cast<double>(latency_recorded.size());
    report.metrics.insert(
        report.metrics.end(),
        {
            {"serve.queue_ms_p50", Percentile(queue, 0.50)},
            {"serve.queue_ms_p99", Percentile(queue, 0.99)},
            {"serve.exec_ms_p50", Percentile(exec, 0.50)},
            {"serve.batch_size_mean", Ratio(answered_all, batches)},
            {"serve.forward_passes_per_request", Ratio(batches, submitted)},
            {"serve.shed", static_cast<double>(shed)},
            {"serve.expired", static_cast<double>(expired)},
            {"serve.degraded", static_cast<double>(degraded)},
            {"serve.retries", static_cast<double>(retries)},
            {"exec.fwd_ms", Ratio(timing->ms(kForward), requests_recorded)},
            {"exec.calls", Ratio(timing->calls(), requests_recorded)},
            {"bench.attribution_base_ms", Ratio(latency_sum, queue.size())},
            {"bench.unattributed_pct", unattributed_pct},
            {"bench.trace_overhead_pct",
             100.0 * (Percentile(latency_recorded, 0.50) - p50_plain) / p50_plain},
        });
    // Counters per request of the window (the pool-hit ratio stays a ratio).
    for (const auto& metric : CountMetrics(window_counts, n)) {
      report.metrics.push_back(metric);
    }
  }

  // ---- Correctness, after shutdown.
  const serve::ServerStats final_stats = server.stats();
  char detail[160];
  std::snprintf(detail, sizeof(detail),
                "submitted %lld != served %lld + degraded %lld + shed %lld + expired %lld + "
                "failed %lld",
                static_cast<long long>(final_stats.submitted),
                static_cast<long long>(final_stats.served),
                static_cast<long long>(final_stats.degraded),
                static_cast<long long>(final_stats.shed),
                static_cast<long long>(final_stats.expired),
                static_cast<long long>(final_stats.failed));
  report.Check("serve_accounting_identity",
               final_stats.submitted == final_stats.served + final_stats.degraded +
                                            final_stats.shed + final_stats.expired +
                                            final_stats.failed,
               detail);
  const Tensor reference = model->Forward(/*training=*/false).value().Clone();
  bool rows_equal = !samples.empty();
  const int64_t classes = reference.dim(1);
  for (const auto& [vertices, logits] : samples) {
    for (size_t r = 0; r < vertices.size(); ++r) {
      rows_equal = rows_equal && std::memcmp(logits.Row(static_cast<int64_t>(r)),
                                             reference.Row(vertices[r]),
                                             static_cast<size_t>(classes) * sizeof(float)) == 0;
    }
  }
  std::snprintf(detail, sizeof(detail), "%zu sampled responses compared with a reference forward",
                samples.size());
  report.Check("served_rows_equal_reference", rows_equal, detail);
  CheckLogits(opt, data, *model, report);

  if (opt.trace) {
    for (size_t i = 0; i < arrivals.size(); ++i) {
      const Outcome& o = outcomes[i];
      if (arrivals[i].at_s < kServeWarmupSeconds || !o.ok) {
        continue;
      }
      const Clock::time_point due = due_at(arrivals[i].at_s);
      const Clock::time_point done =
          due + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(o.latency_ms));
      log.Add({"request", "serve", due, done, 1, static_cast<int64_t>(i) + 1, -1, true});
    }
    if (!opt.trace_out.empty() && !log.WriteChromeTrace(opt.trace_out)) {
      report.Check("trace_written", false, "cannot write " + opt.trace_out);
    }
  }
  // Shed, expired, degraded, failed and late answers all miss the target.
  report.attempted = attempted;
  report.failed = (report.failed_checks.empty() && open_loop_valid)
                      ? attempted - fresh_in_deadline
                      : attempted;
  report.Print();
  return 0;
}

// ---- Entry --------------------------------------------------------------------------------------

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

int Main(int argc, char** argv) {
  Options opt;
  std::string workload, value;
  for (int i = 1; i < argc; ++i) {
    if (ParseFlag(argv[i], "--workload", &value)) {
      workload = value;
    } else if (ParseFlag(argv[i], "--seed", &value)) {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--seconds", &value)) {
      opt.seconds = std::atof(value.c_str());
    } else if (ParseFlag(argv[i], "--trace", &value)) {
      opt.trace = value == "1";
    } else if (ParseFlag(argv[i], "--mode", &value)) {
      opt.mode = value == "setup" ? Mode::kSetup : value == "probe" ? Mode::kProbe : Mode::kMain;
    } else if (ParseFlag(argv[i], "--trace-out", &value)) {
      opt.trace_out = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument '%s'\n", argv[i]);
      return 2;
    }
  }
  opt.workload = FindWorkload(workload);
  if (opt.workload == nullptr || !(opt.seconds > 0.0)) {
    std::fprintf(stderr, "perfbench: need --workload=<name> and --seconds>0\n");
    return 2;
  }
  return opt.workload->serve ? RunServing(opt) : RunTraining(opt);
}

}  // namespace
}  // namespace perfbench
}  // namespace seastar

int main(int argc, char** argv) { return seastar::perfbench::Main(argc, argv); }
