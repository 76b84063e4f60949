#include "src/common/tracing.h"

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstring>
#include <unordered_set>
#include <utility>

#include "src/common/json.h"
#include "src/common/logging.h"
#include "src/common/string_util.h"

namespace seastar {
namespace trace {

namespace trace_internal {
constinit thread_local RequestTrace* tls_trace = nullptr;
}  // namespace trace_internal

namespace {

// SplitMix64: the id generator and the sampler hash. Chosen because it is a
// bijection on 64-bit ints (distinct requests can never collide on trace id
// within a tracer) and fully deterministic in the seed.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

void CopyTruncated(char* dst, size_t dst_size, std::string_view src) {
  const size_t n = std::min(src.size(), dst_size - 1);
  std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

struct FlagName {
  uint32_t flag;
  const char* name;
};

constexpr FlagName kFlagNames[] = {
    {kShed, "shed"},       {kExpired, "expired"}, {kDegraded, "degraded"},
    {kRetried, "retried"}, {kBreaker, "breaker"}, {kFailed, "failed"},
};

// Export keys, in Arg order.
constexpr const char* kArgNames[kNumArgs] = {
    "edges", "bytes_materialized", "dispatches", "kernel_launches",
    "alloc_delta_bytes", "peak_delta_bytes",
    "plan_cache_hits", "plan_cache_misses", "pool_hits", "pool_misses",
    "tile_segments", "tile_passes", "tile_width",
    "epoch", "shards",
    "stride_lag_x1000", "queued_ahead", "occupancy", "batch_key", "attempt", "status", "retries",
    "leader_trace", "vertices",
};

}  // namespace

const char* Intern(std::string_view text) {
  // Node-based set: element addresses survive rehashing, and nothing is ever
  // erased, so returned pointers live as long as the process.
  static std::mutex mutex;
  static std::unordered_set<std::string>* interned = new std::unordered_set<std::string>();
  std::lock_guard<std::mutex> lock(mutex);
  return interned->emplace(text).first->c_str();
}

std::string FlagNames(uint32_t flags) {
  if (flags == 0) {
    return "clean";
  }
  std::string out;
  for (const FlagName& entry : kFlagNames) {
    if ((flags & entry.flag) == 0) {
      continue;
    }
    if (!out.empty()) {
      out += '|';
    }
    out += entry.name;
  }
  return out;
}

std::string TraceIdHex(uint64_t trace_id) {
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "%016llx", static_cast<unsigned long long>(trace_id));
  return buffer;
}

// ---- RequestTrace -----------------------------------------------------------

void RequestTrace::Reset(uint64_t trace_id, bool sampled, uint32_t tenant_index,
                         uint64_t request_id, Clock::time_point epoch, int max_spans) {
  trace_id_ = trace_id;
  request_id_ = request_id;
  tenant_index_ = tenant_index;
  flags_ = 0;
  sampled_ = sampled;
  open_ = -1;
  max_spans_ = max_spans;
  dropped_spans_ = 0;
  total_ms_ = 0.0;
  std::strcpy(outcome_, "open");
  epoch_ = epoch;
  spans_.clear();  // Keeps capacity: recycled traces record without allocating.
}

int64_t RequestTrace::RelMicros(Clock::time_point tp) const {
  return std::chrono::duration_cast<std::chrono::microseconds>(tp - epoch_).count();
}

int RequestTrace::Append(const char* name, const char* category, int64_t start_us,
                         int64_t dur_us) {
  if (static_cast<int>(spans_.size()) >= max_spans_) {
    ++dropped_spans_;
    return -1;
  }
  Span& span = spans_.emplace_back();
  span.name = name;
  span.category = category;
  span.parent = open_;
  span.start_us = start_us;
  span.dur_us = dur_us;
  return static_cast<int>(spans_.size()) - 1;
}

int RequestTrace::BeginSpan(const char* name, const char* category) {
  return BeginSpanAt(name, Clock::now(), category);
}

int RequestTrace::BeginSpanAt(const char* name, Clock::time_point start, const char* category) {
  const int token = Append(name, category, RelMicros(start), -1);
  if (token >= 0) {
    open_ = token;
  }
  return token;
}

void RequestTrace::EndSpan(int token) {
  if (token < 0 || token >= static_cast<int>(spans_.size())) {
    return;
  }
  Span& span = spans_[static_cast<size_t>(token)];
  if (span.dur_us < 0) {
    span.dur_us = std::max<int64_t>(0, RelMicros(Clock::now()) - span.start_us);
  }
  if (open_ == token) {
    open_ = span.parent;
  }
}

int RequestTrace::AddSpan(const char* name, Clock::time_point start, Clock::time_point end) {
  const int64_t start_us = RelMicros(start);
  return Append(name, "serve", start_us, std::max<int64_t>(0, RelMicros(end) - start_us));
}

Span* RequestTrace::mutable_span(int token) {
  if (token < 0 || token >= static_cast<int>(spans_.size())) {
    return nullptr;
  }
  return &spans_[static_cast<size_t>(token)];
}

void RequestTrace::SetDetail(int token, std::string_view detail) {
  if (Span* span = mutable_span(token)) {
    CopyTruncated(span->detail, sizeof(span->detail), detail);
  }
}

void RequestTrace::SetArg(int token, Arg key, int64_t value) {
  if (Span* span = mutable_span(token)) {
    span->Set(key, value);
  }
}

// ---- Tracer -----------------------------------------------------------------

Tracer::Tracer(TracerConfig config, Retention retention)
    : config_(std::move(config)), retention_(retention), epoch_(Clock::now()) {
  SEASTAR_CHECK_GT(config_.anomaly_keep, 0);
}

Tracer::~Tracer() = default;

bool Tracer::HeadSampled(uint64_t trace_id, double rate) {
  if (rate <= 0.0) {
    return false;
  }
  if (rate >= 1.0) {
    return true;
  }
  // Top 53 bits of a second mix -> uniform double in [0, 1). A pure function
  // of the id: replaying the same seed replays the same admitted subset.
  const double u =
      static_cast<double>(SplitMix64(trace_id ^ 0xda3e39cb94b95bdbull) >> 11) * 0x1.0p-53;
  return u < rate;
}

std::unique_ptr<RequestTrace> Tracer::Acquire() {
  if (!pool_.empty()) {
    std::unique_ptr<RequestTrace> trace = std::move(pool_.back());
    pool_.pop_back();
    return trace;
  }
  ++stats_.pool_misses;
  return std::unique_ptr<RequestTrace>(new RequestTrace());
}

void Tracer::Recycle(std::unique_ptr<RequestTrace> trace) { pool_.push_back(std::move(trace)); }

RequestTrace* Tracer::StartTrace(uint32_t tenant_index, uint64_t request_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const uint64_t raw = SplitMix64(config_.seed ^ 0x6c62272e07bb0142ull) + next_trace_++;
  uint64_t trace_id = SplitMix64(raw);
  if (trace_id == 0) {
    trace_id = 1;  // 0 means "no trace" everywhere downstream.
  }
  const bool run = retention_ == Retention::kRun;
  const bool sampled = !run && HeadSampled(trace_id, config_.head_sample_rate);
  std::unique_ptr<RequestTrace> trace = Acquire();
  trace->Reset(trace_id, sampled, tenant_index, request_id, epoch_,
               run ? INT_MAX : kMaxSpansPerTrace);
  ++stats_.started;
  if (sampled) {
    ++stats_.head_sampled;
  }
  // Ownership parks in the pool vector's slot conceptually; the raw pointer
  // travels with the request and comes back through FinishTrace.
  return trace.release();
}

void Tracer::OfferTail(std::unique_ptr<RequestTrace> trace) {
  const auto slower = [](const std::unique_ptr<RequestTrace>& x,
                         const std::unique_ptr<RequestTrace>& y) {
    return x->total_ms() > y->total_ms();  // Min-heap on total_ms.
  };
  if (static_cast<int>(tail_.size()) < kTailKeep) {
    tail_.push_back(std::move(trace));
    std::push_heap(tail_.begin(), tail_.end(), slower);
    return;
  }
  if (trace->total_ms() <= tail_.front()->total_ms()) {
    ++stats_.evicted;
    Recycle(std::move(trace));
    return;
  }
  std::pop_heap(tail_.begin(), tail_.end(), slower);
  ++stats_.evicted;
  Recycle(std::move(tail_.back()));
  tail_.back() = std::move(trace);
  std::push_heap(tail_.begin(), tail_.end(), slower);
}

void Tracer::FinishTrace(RequestTrace* trace, double total_ms, const char* outcome) {
  if (trace == nullptr) {
    return;
  }
  // Close anything still open (normally just the root "request" span).
  while (trace->open_ >= 0) {
    trace->EndSpan(trace->open_);
  }
  trace->total_ms_ = total_ms;
  CopyTruncated(trace->outcome_, sizeof(trace->outcome_), outcome);

  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<RequestTrace> owned(trace);
  ++stats_.finished;
  stats_.spans_dropped += trace->dropped_spans();
  if (retention_ == Retention::kRun) {
    runs_.push_back(std::move(owned));
    return;
  }
  if (trace->flags() != 0) {
    ++stats_.anomalies_observed;
    anomalies_.push_back(std::move(owned));
    if (static_cast<int>(anomalies_.size()) > config_.anomaly_keep) {
      // Keep the newest anomalies, but give the overflow a shot at the tail
      // heap first — a slow anomalous request should not vanish just because
      // a flood of cheap sheds aged it out of the ring.
      std::unique_ptr<RequestTrace> oldest = std::move(anomalies_.front());
      anomalies_.pop_front();
      OfferTail(std::move(oldest));
    }
    return;
  }
  if (trace->sampled()) {
    sampled_.push_back(std::move(owned));
    if (static_cast<int>(sampled_.size()) > kSampledKeep) {
      std::unique_ptr<RequestTrace> oldest = std::move(sampled_.front());
      sampled_.pop_front();
      OfferTail(std::move(oldest));
    }
    return;
  }
  OfferTail(std::move(owned));
}

void Tracer::SetTenantName(uint32_t index, std::string name) {
  std::lock_guard<std::mutex> lock(mutex_);
  tenant_names_[index] = std::move(name);
}

TracerStats Tracer::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  TracerStats stats = stats_;
  stats.retained_sampled = static_cast<int64_t>(sampled_.size());
  stats.retained_anomaly = static_cast<int64_t>(anomalies_.size());
  stats.retained_tail = static_cast<int64_t>(tail_.size());
  stats.retained_run = static_cast<int64_t>(runs_.size());
  return stats;
}

void Tracer::VisitRetained(
    const std::function<void(const RequestTrace&, const char*)>& fn) const {
  for (const std::unique_ptr<RequestTrace>& trace : anomalies_) {
    fn(*trace, "anomaly");
  }
  for (const std::unique_ptr<RequestTrace>& trace : sampled_) {
    fn(*trace, "sampled");
  }
  for (const std::unique_ptr<RequestTrace>& trace : tail_) {
    fn(*trace, "tail");
  }
  for (const std::unique_ptr<RequestTrace>& trace : runs_) {
    fn(*trace, "run");
  }
}

void Tracer::ForEachRetained(const std::function<void(const RequestTrace&)>& fn) const {
  std::lock_guard<std::mutex> lock(mutex_);
  VisitRetained([&fn](const RequestTrace& trace, const char*) { fn(trace); });
}

namespace {

void WriteTraceEvents(JsonWriter& writer, const RequestTrace& trace, const char* retained_by) {
  const int64_t tid = static_cast<int64_t>(trace.request_id());
  const int64_t pid = static_cast<int64_t>(trace.tenant_index());
  for (int i = 0; i < trace.num_spans(); ++i) {
    const Span& span = trace.span(i);
    writer.BeginObject();
    writer.Field("name", span.name);
    writer.Field("cat", span.category);
    writer.Field("ph", "X");
    writer.Field("pid", pid);
    writer.Field("tid", tid);
    writer.FieldDouble("ts", static_cast<double>(span.start_us));
    writer.FieldDouble("dur", static_cast<double>(std::max<int64_t>(0, span.dur_us)));
    writer.Key("args");
    writer.BeginObject();
    writer.Field("idx", static_cast<int64_t>(i));
    writer.Field("parent", static_cast<int64_t>(span.parent));
    writer.Field("trace_id", TraceIdHex(trace.trace_id()));
    if (span.detail[0] != '\0') {
      writer.Field("detail", span.detail);
    }
    for (int a = 0; a < kNumArgs; ++a) {
      if (span.has(static_cast<Arg>(a))) {
        writer.Field(kArgNames[a], span.args[a]);
      }
    }
    if (span.simd_isa != nullptr) {
      writer.Field("simd_isa", span.simd_isa);
    }
    if (span.parent < 0) {
      // Trace-level facts ride on the root span, where trace viewers (and
      // tools/trace_check.py) look for them.
      writer.Field("request_id", static_cast<int64_t>(trace.request_id()));
      writer.Field("flags", FlagNames(trace.flags()));
      writer.Field("sampled", trace.sampled());
      writer.Field("outcome", trace.outcome());
      writer.Field("retained_by", retained_by);
      writer.FieldDouble("total_ms", trace.total_ms());
    }
    writer.EndObject();
    writer.EndObject();
  }
}

}  // namespace

void Tracer::WriteChromeTrace(JsonWriter& writer) const {
  std::lock_guard<std::mutex> lock(mutex_);
  writer.BeginObject();
  writer.Field("displayTimeUnit", "ms");
  writer.Key("traceEvents");
  writer.BeginArray();
  // Metadata: name each tenant's pid row.
  for (const auto& [index, name] : tenant_names_) {
    writer.BeginObject();
    writer.Field("name", "process_name");
    writer.Field("ph", "M");
    writer.Field("pid", static_cast<int64_t>(index));
    writer.Field("tid", static_cast<int64_t>(0));
    writer.Key("args");
    writer.BeginObject();
    writer.Field("name", "tenant:" + name);
    writer.EndObject();
    writer.EndObject();
  }
  VisitRetained([&writer](const RequestTrace& trace, const char* retained_by) {
    WriteTraceEvents(writer, trace, retained_by);
  });
  writer.EndArray();
  writer.Key("traceStats");
  writer.BeginObject();
  writer.Field("retention", retention_ == Retention::kRun ? "run" : "sampled");
  writer.Field("started", stats_.started);
  writer.Field("finished", stats_.finished);
  writer.Field("head_sampled", stats_.head_sampled);
  writer.Field("anomalies_observed", stats_.anomalies_observed);
  writer.Field("retained_sampled", static_cast<int64_t>(sampled_.size()));
  writer.Field("retained_anomaly", static_cast<int64_t>(anomalies_.size()));
  writer.Field("retained_tail", static_cast<int64_t>(tail_.size()));
  writer.Field("retained_run", static_cast<int64_t>(runs_.size()));
  writer.Field("evicted", stats_.evicted);
  writer.Field("spans_dropped", stats_.spans_dropped);
  writer.Field("pool_misses", stats_.pool_misses);
  writer.Field("tail_keep", int64_t{kTailKeep});
  writer.Field("anomaly_keep", static_cast<int64_t>(config_.anomaly_keep));
  writer.FieldDouble("head_sample_rate", config_.head_sample_rate);
  writer.EndObject();
  writer.EndObject();
}

std::string Tracer::ChromeTraceJson() const {
  JsonWriter writer;
  WriteChromeTrace(writer);
  return writer.str();
}

bool Tracer::WriteChromeTraceFile(const std::string& path) const {
  JsonWriter writer;
  WriteChromeTrace(writer);
  return writer.WriteToFile(path);
}

std::string Tracer::SummaryTable() const {
  struct Row {
    int64_t count = 0;
    int64_t total_us = 0;
    int64_t sums[kNumArgs] = {};
    int64_t tile_width = 0;
    const char* simd_isa = "";
  };
  // Keyed by (category, name); std::map gives a stable report order.
  std::map<std::pair<std::string, std::string>, Row> rows;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    VisitRetained([&rows](const RequestTrace& trace, const char*) {
      for (int i = 0; i < trace.num_spans(); ++i) {
        const Span& span = trace.span(i);
        Row& row = rows[{span.category, span.name}];
        ++row.count;
        row.total_us += std::max<int64_t>(0, span.dur_us);
        for (int a = 0; a < kNumArgs; ++a) {
          row.sums[a] += span.args[a];
        }
        row.tile_width = std::max(row.tile_width, span.arg(Arg::kTileWidth));
        if (row.simd_isa[0] == '\0' && span.simd_isa != nullptr) {
          row.simd_isa = span.simd_isa;
        }
      }
    });
  }
  // Names print whole: the text columns widen to the longest entry.
  size_t category_width = 8;
  size_t name_width = 36;
  for (const auto& [key, row] : rows) {
    category_width = std::max(category_width, key.first.size());
    name_width = std::max(name_width, key.second.size());
  }
  std::string out;
  const auto text_columns = [&](const std::string& category, const std::string& name) {
    out += category + std::string(category_width + 1 - category.size(), ' ');
    out += name + std::string(name_width + 1 - name.size(), ' ');
  };
  char line[256];
  text_columns("category", "name");
  std::snprintf(line, sizeof(line), "%7s %12s %10s %14s %12s %10s %9s %9s %8s %6s\n", "count",
                "total ms", "avg ms", "edges", "mat bytes", "launches", "plan h/m", "pool hit%",
                "segs/tw", "isa");
  out += line;
  out += std::string(category_width + name_width + 102, '-') + "\n";
  for (const auto& [key, row] : rows) {
    const auto sum = [&row](Arg a) { return row.sums[static_cast<int>(a)]; };
    // "plan h/m" and "pool hit%" only apply to spans that recorded the
    // caching counters (exec runs, epochs); blank elsewhere.
    char plan[48] = "";
    if (sum(Arg::kPlanCacheHits) + sum(Arg::kPlanCacheMisses) > 0) {
      std::snprintf(plan, sizeof(plan), "%lld/%lld",
                    static_cast<long long>(sum(Arg::kPlanCacheHits)),
                    static_cast<long long>(sum(Arg::kPlanCacheMisses)));
    }
    char pool[32] = "";
    const int64_t pool_total = sum(Arg::kPoolHits) + sum(Arg::kPoolMisses);
    if (pool_total > 0) {
      std::snprintf(pool, sizeof(pool), "%5.1f",
                    100.0 * static_cast<double>(sum(Arg::kPoolHits)) /
                        static_cast<double>(pool_total));
    }
    // "segs/tw" summarizes the tiled partitioning (segments executed and the
    // feature-tile width); blank for spans that ran untiled.
    char tiling[48] = "";
    if (sum(Arg::kTileSegments) > 0) {
      std::snprintf(tiling, sizeof(tiling), "%lld/%lld",
                    static_cast<long long>(sum(Arg::kTileSegments)),
                    static_cast<long long>(row.tile_width));
    }
    text_columns(key.first, key.second);
    std::snprintf(line, sizeof(line), "%7lld %12.3f %10.4f %14lld %12s %10lld %9s %9s %8s %6s\n",
                  static_cast<long long>(row.count), static_cast<double>(row.total_us) / 1e3,
                  static_cast<double>(row.total_us) / 1e3 /
                      static_cast<double>(std::max<int64_t>(1, row.count)),
                  static_cast<long long>(sum(Arg::kEdges)),
                  HumanBytes(static_cast<uint64_t>(
                                 std::max<int64_t>(0, sum(Arg::kBytesMaterialized))))
                      .c_str(),
                  static_cast<long long>(sum(Arg::kKernelLaunches)), plan, pool, tiling,
                  row.simd_isa);
    out += line;
  }
  return out;
}

// ---- ScopedRun --------------------------------------------------------------

ScopedRun::ScopedRun(Tracer* tracer, const char* name, const char* category)
    : tracer_(tracer),
      trace_(tracer != nullptr ? tracer->StartTrace(0, static_cast<uint64_t>(
                                                           tracer->stats().started))
                               : nullptr),
      start_(Tracer::Clock::now()),
      context_(trace_ != nullptr ? trace_ : CurrentTrace()) {
  if (trace_ != nullptr) {
    trace_->BeginSpan(name, category);
  }
}

ScopedRun::~ScopedRun() {
  if (trace_ != nullptr) {
    tracer_->FinishTrace(
        trace_, std::chrono::duration<double, std::milli>(Tracer::Clock::now() - start_).count(),
        "done");
  }
}

}  // namespace trace
}  // namespace seastar
