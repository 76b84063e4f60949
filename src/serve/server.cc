#include "src/serve/server.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <thread>
#include <utility>

#include "src/common/fault.h"
#include "src/common/flight_recorder.h"
#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/tensor/allocator.h"
#include "src/tensor/autograd.h"

namespace seastar {
namespace serve {
namespace {

using Clock = std::chrono::steady_clock;

// Metric base names of Server::Outcome, in enum order.
constexpr const char* kOutcomeNames[] = {"submitted", "rejected", "shed",    "quota_shed",
                                         "served",    "degraded", "expired", "failed"};

// TenantStats and ServerStats fields of each Server::Outcome, in enum order.
constexpr int64_t TenantStats::*kOutcomeFields[] = {
    &TenantStats::submitted, &TenantStats::rejected, &TenantStats::shed,
    &TenantStats::quota_shed, &TenantStats::served,  &TenantStats::degraded,
    &TenantStats::expired,   &TenantStats::failed};
constexpr int64_t ServerStats::*kServerFields[] = {
    &ServerStats::submitted, &ServerStats::rejected, &ServerStats::shed,
    &ServerStats::quota_shed, &ServerStats::served,  &ServerStats::degraded,
    &ServerStats::expired,   &ServerStats::failed};

// Registry handles for the serving path, resolved once per process and
// cached (the static-init guard is the only per-call cost). Request-rate
// code touches these through one relaxed add / store each; the registry is
// never consulted per request — tests assert lookups() stays flat.
struct ServeMetrics {
  std::array<metrics::Counter*, std::size(kOutcomeNames)> outcomes;  // Indexed by Outcome.
  metrics::Counter* retries;
  metrics::Counter* batches;
  metrics::Counter* unit_aborts;
  metrics::Counter* swaps;
  metrics::Counter* swap_failures;
  metrics::Counter* swap_retired;
  metrics::Histogram* request_latency;  // End-to-end, answered requests only.
  metrics::Histogram* queue_wait;       // Admission -> dequeue, answered only.
  metrics::Histogram* batch_occupancy;  // Live requests per executed batch.
  metrics::Gauge* queue_depth;
  metrics::Gauge* inflight;
};

const ServeMetrics& GetServeMetrics() {
  static const ServeMetrics metrics = [] {
    metrics::MetricsRegistry& r = metrics::MetricsRegistry::Get();
    ServeMetrics m;
    for (size_t o = 0; o < m.outcomes.size(); ++o) {
      m.outcomes[o] = r.GetCounter(std::string("seastar_serve_") + kOutcomeNames[o] + "_total");
    }
    m.retries = r.GetCounter("seastar_serve_retries_total");
    m.batches = r.GetCounter("seastar_serve_batches_total");
    m.unit_aborts = r.GetCounter("seastar_serve_deadline_unit_aborts_total");
    m.swaps = r.GetCounter("seastar_serve_swaps_total");
    m.swap_failures = r.GetCounter("seastar_serve_swap_failures_total");
    m.swap_retired = r.GetCounter("seastar_serve_swap_retired_total");
    m.request_latency = r.GetHistogram("seastar_serve_request_latency_ms");
    m.queue_wait = r.GetHistogram("seastar_serve_queue_wait_ms");
    m.batch_occupancy = r.GetHistogram("seastar_serve_batch_occupancy");
    m.queue_depth = r.GetGauge("seastar_serve_queue_depth");
    m.inflight = r.GetGauge("seastar_serve_inflight_requests");
    return m;
  }();
  return metrics;
}

double MillisBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// Per-tenant registry name with the Prometheus label baked in, e.g.
// seastar_serve_tenant_served_total{tenant="analytics"}. The tenant name is
// client-supplied configuration — escape it, or a name containing `"` or a
// newline corrupts the whole text exposition.
std::string TenantMetricName(const char* base, const std::string& tenant) {
  return std::string("seastar_serve_tenant_") + base + "_total{tenant=\"" +
         metrics::EscapeLabelValue(tenant) + "\"}";
}

// Batch key = entry fingerprint (model id, weights version, architecture,
// graph) mixed with the tenant index: two tenants sharing one model id still
// never coalesce into one forward — their QoS, breaker, and accounting are
// distinct even when their answers would be identical.
uint64_t BatchKeyFor(uint64_t entry_fingerprint, uint32_t tenant_index) {
  uint64_t key = entry_fingerprint;
  key ^= static_cast<uint64_t>(tenant_index) + 0x9e3779b97f4a7c15ull + (key << 6) + (key >> 2);
  return key != 0 ? key : 1;
}

bool HasNonFinite(const Tensor& t) {
  const float* p = t.data();
  const int64_t n = t.numel();
  for (int64_t i = 0; i < n; ++i) {
    if (!std::isfinite(p[i])) {
      return true;
    }
  }
  return false;
}

std::shared_ptr<ModelRegistry> MakeSingleModelRegistry(GnnModel& model, const Dataset& data) {
  auto registry = std::make_shared<ModelRegistry>();
  StatusOr<std::shared_ptr<const ModelEntry>> entry =
      registry->RegisterBorrowed("default", model, data);
  SEASTAR_CHECK(entry.has_value()) << entry.status().ToString();
  return registry;
}

// Fills in the default tenant when the config names none, binding it to the
// registry's single entry (or "default" when ambiguous — Start() validates).
ServeConfig NormalizeTenants(ServeConfig config, const ModelRegistry& registry) {
  if (config.tenants.empty()) {
    TenantConfig tenant;
    const std::vector<ModelEntryInfo> entries = registry.List();
    if (entries.size() == 1) {
      tenant.model_id = entries[0].model_id;
    }
    config.tenants.push_back(std::move(tenant));
  }
  return config;
}

}  // namespace

Server::Server(GnnModel& model, const Dataset& data, ServeConfig config)
    : Server(MakeSingleModelRegistry(model, data), std::move(config)) {}

Server::Server(std::shared_ptr<ModelRegistry> registry, ServeConfig config)
    : config_(NormalizeTenants(std::move(config), *registry)),
      registry_(std::move(registry)),
      queue_(config_.queue_capacity),
      batcher_(queue_, BatcherOptions{config_.max_batch, config_.max_batch_delay_ms}) {
  if (config_.tracing.enabled) {
    tracer_ = std::make_unique<trace::Tracer>(config_.tracing);
  }
  metrics::MetricsRegistry& registry_metrics = metrics::MetricsRegistry::Get();
  tenants_.reserve(config_.tenants.size());
  for (size_t i = 0; i < config_.tenants.size(); ++i) {
    const TenantConfig& tc = config_.tenants[i];
    SEASTAR_CHECK(!tc.name.empty()) << "tenant " << i << " has an empty name";
    SEASTAR_CHECK_GT(tc.weight, 0.0) << "tenant '" << tc.name << "': weight must be positive";
    SEASTAR_CHECK_GE(tc.max_queued, 0) << "tenant '" << tc.name << "': negative quota";
    auto tenant = std::make_unique<Tenant>();
    tenant->index = static_cast<uint32_t>(i);
    tenant->config = tc;
    tenant->breaker = std::make_unique<CircuitBreaker>(config_.breaker_trip_after,
                                                       config_.breaker_probe_interval_ms);
    for (int o = 0; o < kNumOutcomes; ++o) {
      tenant->counters[o] =
          registry_metrics.GetCounter(TenantMetricName(kOutcomeNames[o], tc.name));
    }
    const bool inserted =
        tenant_index_.emplace(tc.name, static_cast<uint32_t>(i)).second;
    SEASTAR_CHECK(inserted) << "duplicate tenant name '" << tc.name << "'";
    queue_.ConfigureTenant(static_cast<uint32_t>(i), tc.weight, tc.max_queued);
    if (tracer_ != nullptr) {
      tracer_->SetTenantName(static_cast<uint32_t>(i), tc.name);
    }
    tenants_.push_back(std::move(tenant));
  }
}

Server::~Server() { Shutdown(); }

Status Server::Start() {
  if (started_.load(std::memory_order_acquire)) {
    return ErrorStatus(StatusCode::kInvalidArgument) << "server already started";
  }

  // Every tenant must resolve to a registered entry before the first
  // admission: a dangling model id should fail the boot, not the requests.
  for (const std::unique_ptr<Tenant>& tenant : tenants_) {
    if (registry_->Lookup(tenant->config.model_id) == nullptr) {
      return ErrorStatus(StatusCode::kNotFound)
             << "tenant '" << tenant->config.name << "' is bound to unregistered model id '"
             << tenant->config.model_id << "'";
    }
  }

  {
    // First forward per distinct model compiles every plan into the
    // PlanCache and sizes the allocator pool; it also seeds the tenants'
    // last-known-good caches so degraded mode has answers from the first
    // request on. Warmup shares the serving retry policy because boot-time
    // fault injection hits it too. It runs on the caller's thread, so its
    // span lands on the caller's ambient trace (a run-scoped profile), if any.
    trace::AmbientSpan warm_span("warmup");
    std::map<const ModelEntry*, Tensor> warm_logits;
    for (const std::unique_ptr<Tenant>& tenant : tenants_) {
      std::shared_ptr<const ModelEntry> entry = registry_->Lookup(tenant->config.model_id);
      auto warmed = warm_logits.find(entry.get());
      if (warmed == warm_logits.end()) {
        Deadline no_deadline;  // Unarmed: warmup may take as long as it takes.
        int retries_paid = 0;
        AttemptResult warm = ExecuteWithRetries(*entry, no_deadline, &retries_paid);
        CountRetries(nullptr, retries_paid);
        if (!warm.status.ok()) {
          // Not fatal: the breaker/retry machinery will keep trying per batch.
          SEASTAR_LOG(Warning) << "serve start: warmup forward of '" << entry->model_id()
                               << "' failed (" << warm.status.message() << "); starting anyway";
        }
        warmed = warm_logits.emplace(entry.get(), std::move(warm.logits)).first;
      }
      if (warmed->second.defined()) {
        std::lock_guard<std::mutex> lock(lkg_mutex_);
        tenant->lkg = warmed->second.Clone();
      }
    }
  }

  started_.store(true, std::memory_order_release);
  serving_thread_ = std::thread([this] { ServeLoop(); });
  return Status::Ok();
}

void Server::Shutdown() {
  if (!started_.load(std::memory_order_acquire)) {
    return;
  }
  if (!stopping_.exchange(true)) {
    // Closing the queue rejects new pushes; the serving loop drains whatever
    // is already queued (every promise is fulfilled) before exiting.
    queue_.Close();
  }
  // Concurrent Shutdown calls (e.g. explicit Shutdown racing the destructor)
  // must not both touch the std::thread: join under a mutex, where
  // joinable() flips atomically with the join itself.
  std::lock_guard<std::mutex> lock(shutdown_mutex_);
  if (serving_thread_.joinable()) {
    serving_thread_.join();
  }
  // Swaps staged after the serving loop exited would otherwise never
  // resolve; every swap future is fulfilled, like every request future.
  std::deque<PendingSwap> orphaned;
  {
    std::lock_guard<std::mutex> swap_lock(swap_mutex_);
    orphaned.swap(pending_swaps_);
  }
  for (PendingSwap& swap : orphaned) {
    swap.promise.set_value(ErrorStatus(StatusCode::kUnavailable)
                           << "server shut down before applying the staged swap");
  }
}

Server::Tenant* Server::FindTenant(const std::string& name) const {
  auto it = tenant_index_.find(name);
  return it == tenant_index_.end() ? nullptr : tenants_[it->second].get();
}

std::future<StatusOr<InferenceResponse>> Server::Submit(InferenceRequest request) {
  const ServeMetrics& metrics = GetServeMetrics();
  std::promise<StatusOr<InferenceResponse>> rejected;
  std::future<StatusOr<InferenceResponse>> rejected_future = rejected.get_future();

  if (!started_.load(std::memory_order_acquire)) {
    rejected.set_value(ErrorStatus(StatusCode::kUnavailable) << "server not started");
    return rejected_future;
  }
  Tenant* tenant = nullptr;
  if (request.tenant.empty()) {
    tenant = tenants_[0].get();
  } else {
    tenant = FindTenant(request.tenant);
    if (tenant == nullptr) {
      // No tenant to attribute this to — it only counts globally.
      Count(nullptr, kRejected);
      rejected.set_value(ErrorStatus(StatusCode::kInvalidArgument)
                         << "unknown tenant '" << request.tenant << "'");
      return rejected_future;
    }
  }
  std::shared_ptr<const ModelEntry> entry = registry_->Lookup(tenant->config.model_id);
  if (entry == nullptr) {
    Count(tenant, kRejected);
    rejected.set_value(ErrorStatus(StatusCode::kUnavailable)
                       << "model id '" << tenant->config.model_id << "' is not registered");
    return rejected_future;
  }
  const auto reject_invalid = [&](Status status) {
    Count(tenant, kRejected);
    rejected.set_value(std::move(status));
    return std::move(rejected_future);
  };
  if (request.vertices.empty()) {
    return reject_invalid(ErrorStatus(StatusCode::kInvalidArgument)
                          << "request names no vertices");
  }
  const int64_t num_vertices = entry->data().graph.num_vertices();
  for (int32_t v : request.vertices) {
    if (v < 0 || v >= num_vertices) {
      return reject_invalid(ErrorStatus(StatusCode::kInvalidArgument)
                            << "vertex " << v << " out of range [0, " << num_vertices << ")");
    }
  }
  if (request.model_fingerprint != 0 && request.model_fingerprint != entry->fingerprint()) {
    return reject_invalid(ErrorStatus(StatusCode::kInvalidArgument)
                          << "request pins model fingerprint " << request.model_fingerprint
                          << " but tenant '" << tenant->config.name << "' runs "
                          << entry->fingerprint() << " ('" << entry->model_id() << "' v"
                          << entry->version() << ")");
  }

  auto pending = std::make_unique<PendingRequest>();
  const double deadline_ms =
      request.deadline_ms == 0.0 ? config_.default_deadline_ms : request.deadline_ms;
  if (deadline_ms > 0.0) {
    pending->deadline = Deadline::AfterMillis(deadline_ms);
  }
  pending->request = std::move(request);
  pending->id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  pending->tenant_index = tenant->index;
  // RCU pin: this request is answered by the entry it was admitted against,
  // even if a hot-swap flips the live entry while it waits.
  pending->batch_key = BatchKeyFor(entry->fingerprint(), tenant->index);
  pending->entry = std::move(entry);
  pending->admitted_at = Clock::now();
  const uint64_t id = pending->id;
  const Clock::time_point admitted_at = pending->admitted_at;
  std::future<StatusOr<InferenceResponse>> future = pending->promise.get_future();

  // Trace the request from the admission decision on. Held locally as well as
  // on the pending request: TryPush consumes the PendingRequest even when it
  // sheds, so the shed/closed paths finish the trace through this pointer.
  // The admission span closes *before* the push — once the request is queued
  // the serving thread may own the trace immediately.
  trace::RequestTrace* rtrace = nullptr;
  if (tracer_ != nullptr) {
    rtrace = tracer_->StartTrace(tenant->index, id);
    rtrace->BeginSpanAt("request", admitted_at);
    const AdmissionQueue::StridePosition stride = queue_.stride_position(tenant->index);
    const int admission = rtrace->AddSpan("admission", admitted_at, Clock::now());
    rtrace->SetDetail(admission, tenant->config.name);
    // stride_lag > 0: this tenant is behind the dispatch frontier (fair-share
    // debt); queued_ahead: its own backlog at admission. Together they say
    // whether a long queue span was scheduling or load.
    rtrace->SetArg(admission, trace::Arg::kStrideLagX1000,
                   static_cast<int64_t>((stride.pass - stride.virtual_time) * 1000.0));
    rtrace->SetArg(admission, trace::Arg::kQueuedAhead, static_cast<int64_t>(stride.queued));
    pending->trace = rtrace;
  }

  // Counted as submitted before the push: once queued, the serving thread
  // may answer the request and count its outcome at once, and no stats()
  // snapshot may show an outcome whose submission it does not.
  Count(tenant, kSubmitted);
  const AdmitResult admitted = queue_.TryPush(std::move(pending));
  switch (admitted) {
    case AdmitResult::kAdmitted:
      metrics.queue_depth->Set(static_cast<double>(queue_.size()));
      return future;
    case AdmitResult::kClosed:
      // The request never entered the serving pipeline: a rejection, outside
      // the submitted identity, so its submission moves to rejected (only a
      // request racing Shutdown takes this path).
      Count(tenant, kSubmitted, -1);
      Count(tenant, kRejected);
      if (rtrace != nullptr) {
        tracer_->FinishTrace(rtrace, MillisBetween(admitted_at, Clock::now()), "closed");
      }
      rejected.set_value(ErrorStatus(StatusCode::kUnavailable)
                         << "admission queue closed (shutting down)");
      return rejected_future;
    case AdmitResult::kShedCapacity:
    case AdmitResult::kShedQuota: {
      // Answer immediately so the client can back off instead of waiting out
      // its deadline. Sheds are inside the submitted identity: the submission
      // was counted before the push, and quota_shed only after shed.
      const bool quota = admitted == AdmitResult::kShedQuota;
      Count(tenant, kShed);
      if (rtrace != nullptr) {
        // Sheds are anomalies: retained by the tracer regardless of head
        // sampling, so overload drills can name every turned-away request.
        rtrace->AddFlag(trace::kShed);
        tracer_->FinishTrace(rtrace, MillisBetween(admitted_at, Clock::now()), "shed");
      }
      if (quota) {
        Count(tenant, kQuotaShed);
        FlightRecorder::Get().Record("serve", "request shed (tenant over quota)", id,
                                     static_cast<int64_t>(tenant->index));
        rejected.set_value(ErrorStatus(StatusCode::kResourceExhausted)
                           << "tenant '" << tenant->config.name << "' over admission quota ("
                           << tenant->config.max_queued << " queued): request shed");
      } else {
        FlightRecorder::Get().Record("serve", "request shed (queue full)", id);
        rejected.set_value(ErrorStatus(StatusCode::kResourceExhausted)
                           << "admission queue full (capacity " << queue_.capacity()
                           << "): request shed");
      }
      return rejected_future;
    }
  }
  rejected.set_value(ErrorStatus(StatusCode::kInternal) << "unreachable admission outcome");
  return rejected_future;
}

StatusOr<InferenceResponse> Server::Infer(InferenceRequest request) {
  return Submit(std::move(request)).get();
}

std::future<StatusOr<int64_t>> Server::RequestHotSwap(const std::string& model_id,
                                                      const std::string& checkpoint_path) {
  std::promise<StatusOr<int64_t>> promise;
  std::future<StatusOr<int64_t>> future = promise.get_future();
  if (!started_.load(std::memory_order_acquire)) {
    promise.set_value(ErrorStatus(StatusCode::kFailedPrecondition)
                      << "hot-swap requires a started server");
    return future;
  }
  // Staging — checkpoint load + factory build + weight copy — happens on
  // *this* thread; serving is untouched until the serving thread warms and
  // publishes the staged entry between batches.
  StatusOr<std::shared_ptr<const ModelEntry>> staged =
      registry_->PrepareSwap(model_id, checkpoint_path);
  if (!staged.has_value()) {
    UpdateStats([](ServerStats& s) { ++s.swap_failures; });
    GetServeMetrics().swap_failures->Add(1);
    FlightRecorder::Get().Record("swap", "stage failed", 0,
                                 static_cast<int64_t>(staged.status().code()));
    promise.set_value(staged.status());
    return future;
  }
  {
    std::lock_guard<std::mutex> lock(swap_mutex_);
    if (stopping_.load(std::memory_order_acquire)) {
      promise.set_value(ErrorStatus(StatusCode::kUnavailable)
                        << "server shutting down; staged swap dropped");
      return future;
    }
    pending_swaps_.push_back(PendingSwap{std::move(staged.value()), std::move(promise)});
  }
  return future;
}

void Server::ProcessPendingSwaps() {
  std::deque<PendingSwap> staged;
  {
    std::lock_guard<std::mutex> lock(swap_mutex_);
    staged.swap(pending_swaps_);
  }
  for (PendingSwap& swap : staged) {
    const std::string model_id = swap.staged->model_id();
    const int64_t version = swap.staged->version();
    char detail[88];

    // Warmup forward of the staged entry: compiles nothing new (same
    // architecture -> PlanCache hits), touches only pooled tensors, and
    // produces the logits that seed the affected tenants' LKG caches. A
    // swap that cannot complete one forward must not go live.
    std::snprintf(detail, sizeof(detail), "warm %s v%lld", model_id.c_str(),
                  static_cast<long long>(version));
    FlightRecorder::Get().Record("swap", detail, version);
    Deadline no_deadline;
    int retries_paid = 0;
    AttemptResult warm = ExecuteWithRetries(*swap.staged, no_deadline, &retries_paid);
    CountRetries(nullptr, retries_paid);
    if (!warm.status.ok()) {
      UpdateStats([](ServerStats& s) { ++s.swap_failures; });
      GetServeMetrics().swap_failures->Add(1);
      std::snprintf(detail, sizeof(detail), "warm failed %s v%lld", model_id.c_str(),
                    static_cast<long long>(version));
      FlightRecorder::Get().Record("swap", detail, version,
                                   static_cast<int64_t>(warm.status.code()));
      SEASTAR_LOG(Warning) << "hot-swap: warmup of '" << model_id << "' v" << version
                           << " failed (" << warm.status.message() << "); old version stays live";
      swap.promise.set_value(warm.status);
      continue;
    }

    StatusOr<std::shared_ptr<const ModelEntry>> replaced =
        registry_->Publish(std::move(swap.staged));
    if (!replaced.has_value()) {
      UpdateStats([](ServerStats& s) { ++s.swap_failures; });
      GetServeMetrics().swap_failures->Add(1);
      swap.promise.set_value(replaced.status());
      continue;
    }

    for (const std::unique_ptr<Tenant>& tenant : tenants_) {
      if (tenant->config.model_id != model_id) {
        continue;
      }
      {
        // Fresh LKG from the new weights: degraded answers track the version
        // new admissions are pinned to.
        std::lock_guard<std::mutex> lock(lkg_mutex_);
        tenant->lkg = warm.logits.Clone();
      }
      // Accumulated failure state described the old weights; an OPEN breaker
      // probes the new version on the very next batch.
      tenant->breaker->NoteBackendReplaced();
    }

    UpdateStats([](ServerStats& s) { ++s.swaps; });
    GetServeMetrics().swaps->Add(1);
    std::snprintf(detail, sizeof(detail), "flip %s v%lld -> v%lld", model_id.c_str(),
                  static_cast<long long>(replaced.value()->version()),
                  static_cast<long long>(version));
    FlightRecorder::Get().Record("swap", detail, version);
    SEASTAR_LOG(Info) << "hot-swap: '" << model_id << "' v" << replaced.value()->version()
                      << " -> v" << version << " live; old version drains in flight";
    swap.promise.set_value(version);
    // `replaced` drops here; the old generation retires once in-flight
    // requests release their pins (PollRetirements observes the drain).
  }
}

void Server::PollRetirements() {
  for (const RetiredEntry& retired : registry_->PollRetired()) {
    UpdateStats([](ServerStats& s) { ++s.swap_retired; });
    GetServeMetrics().swap_retired->Add(1);
    char detail[88];
    std::snprintf(detail, sizeof(detail), "retire %s v%lld (drained)", retired.model_id.c_str(),
                  static_cast<long long>(retired.version));
    FlightRecorder::Get().Record("swap", detail, retired.version);
    SEASTAR_LOG(Info) << "hot-swap: '" << retired.model_id << "' v" << retired.version
                      << " fully drained and retired";
  }
}

void Server::ServeLoop() {
  const ServeMetrics& metrics = GetServeMetrics();
  for (;;) {
    ProcessPendingSwaps();
    PollRetirements();
    std::vector<std::unique_ptr<PendingRequest>> batch = batcher_.NextBatch();
    metrics.queue_depth->Set(static_cast<double>(queue_.size()));
    if (batch.empty()) {
      if (queue_.closed() && queue_.size() == 0) {
        ProcessPendingSwaps();  // Fail-or-apply anything staged mid-shutdown.
        PollRetirements();
        return;  // Drained; shutdown completes.
      }
      continue;
    }
    metrics.inflight->Set(static_cast<double>(batch.size()));
    ServeBatch(std::move(batch));
    metrics.inflight->Set(0.0);
  }
}

Server::AttemptResult Server::RunForwardOnce(const ModelEntry& entry, const Deadline& deadline) {
  AttemptResult result;
  TensorAllocator& allocator = TensorAllocator::Get();
  UpdateStats([](ServerStats& s) { ++s.batches; });
  GetServeMetrics().batches->Add(1);
  try {
    // The executors poll this deadline at unit/op boundaries
    // (CheckExecutionDeadline) and abort expired work mid-forward.
    ScopedDeadline ambient(&deadline);
    Var out = entry.model().Forward(/*training=*/false);
    if (allocator.failure_injected()) {
      allocator.ClearInjectedFailure();
      result.status = ErrorStatus(StatusCode::kUnavailable)
                      << "transient allocation failure injected during forward";
      result.retryable = true;
      return result;
    }
    Tensor logits = out.value();
    if (HasNonFinite(logits)) {
      // Poisoned output is not transient: retrying the same weights yields
      // the same NaNs. Fail fast and let the breaker count it.
      result.status = ErrorStatus(StatusCode::kInternal) << "forward produced non-finite logits";
      result.retryable = false;
      return result;
    }
    result.status = Status::Ok();
    result.logits = std::move(logits);
    return result;
  } catch (const DeadlineExceeded& e) {
    allocator.ClearInjectedFailure();
    UpdateStats([](ServerStats& s) { ++s.deadline_unit_aborts; });
    GetServeMetrics().unit_aborts->Add(1);
    FlightRecorder::Get().Record("serve", "forward aborted at unit boundary (deadline)");
    result.status = ErrorStatus(StatusCode::kDeadlineExceeded) << e.what();
    result.retryable = false;
    result.unit_abort = true;
    return result;
  } catch (const std::exception& e) {
    allocator.ClearInjectedFailure();
    result.status = ErrorStatus(StatusCode::kInternal) << "forward threw: " << e.what();
    result.retryable = true;
    return result;
  }
}

Server::AttemptResult Server::ExecuteWithRetries(const ModelEntry& entry, const Deadline& deadline,
                                                 int* retries_paid) {
  AttemptResult result;
  for (int attempt = 0;; ++attempt) {
    {
      // One span per attempt on the ambient trace (no-op during warmup and
      // swap warming, which run without one): a retried request's trace
      // shows each attempt's duration, with the backoff gaps between them.
      trace::AmbientSpan attempt_span("attempt");
      attempt_span.Set(trace::Arg::kAttempt, attempt);
      result = RunForwardOnce(entry, deadline);
      if (!result.status.ok()) {
        attempt_span.Set(trace::Arg::kStatus, static_cast<int64_t>(result.status.code()));
      }
    }
    if (result.status.ok()) {
      return result;
    }
    if (!result.retryable || attempt >= config_.max_retries) {
      return result;
    }
    double backoff_ms = config_.retry_base_backoff_ms * static_cast<double>(1 << attempt);
    if (deadline.armed()) {
      const double remaining = deadline.remaining_ms();
      if (remaining <= 0.0) {
        // The budget ran out mid-retry: report it as a deadline abort, not
        // the transient fault, so it counts as expired and stays off the
        // breaker like every other deadline outcome.
        result.status = ErrorStatus(StatusCode::kDeadlineExceeded)
                        << "deadline expired while retrying transient fault: "
                        << result.status.message();
        result.retryable = false;
        return result;
      }
      backoff_ms = std::min(backoff_ms, remaining);
    }
    ++*retries_paid;
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(backoff_ms));
  }
}

void Server::FulfillFromLogits(const Tensor& logits,
                               std::vector<std::unique_ptr<PendingRequest>>& batch,
                               Tenant& tenant, bool degraded, int retries_paid) {
  // Fulfillment finishes (and recycles) the batch's traces, the leader's
  // too: events recorded below must not read it through the ambient context.
  trace::ScopedTraceContext no_trace(nullptr);
  const ServeMetrics& metrics = GetServeMetrics();
  const int batch_size = static_cast<int>(batch.size());
  const int64_t num_classes = logits.dim(1);
  for (std::unique_ptr<PendingRequest>& pending : batch) {
    const Clock::time_point now = Clock::now();
    if (pending->deadline.armed() && pending->deadline.expired()) {
      // The batch made it, this request's budget didn't: its client has
      // already moved on, so the answer would only be discarded.
      Count(&tenant, kExpired);
      FlightRecorder::Get().Record("serve", "request expired before fulfillment", pending->id);
      if (pending->trace != nullptr) {
        pending->trace->AddFlag(trace::kExpired);
        tracer_->FinishTrace(pending->trace, MillisBetween(pending->admitted_at, now), "expired");
        pending->trace = nullptr;
      }
      pending->promise.set_value(ErrorStatus(StatusCode::kDeadlineExceeded)
                                 << "deadline expired before fulfillment");
      continue;
    }
    const std::vector<int32_t>& vertices = pending->request.vertices;
    InferenceResponse response;
    response.logits = Tensor({static_cast<int64_t>(vertices.size()), num_classes});
    for (size_t i = 0; i < vertices.size(); ++i) {
      const float* src = logits.Row(vertices[i]);
      std::copy(src, src + num_classes, response.logits.Row(static_cast<int64_t>(i)));
    }
    if (pending->trace != nullptr) {
      const int fulfill = pending->trace->AddSpan("fulfill", now, Clock::now());
      pending->trace->SetArg(fulfill, trace::Arg::kVertices,
                             static_cast<int64_t>(vertices.size()));
    }
    response.degraded = degraded;
    response.retries = retries_paid;
    response.batch_size = batch_size;
    response.queue_ms = MillisBetween(pending->admitted_at, pending->dequeued_at);
    response.exec_ms = MillisBetween(pending->dequeued_at, now);
    response.total_ms = MillisBetween(pending->admitted_at, now);
    if (pending->entry != nullptr) {
      // The version pinned at admission, not whatever is live now.
      response.model_id = pending->entry->model_id();
      response.model_version = pending->entry->version();
    }
    response.tenant = tenant.config.name;
    if (pending->trace != nullptr) {
      // Capture id/sampled before FinishTrace: the trace recycles into the
      // pool and a concurrent Submit may reuse it immediately.
      response.trace_id = pending->trace->trace_id();
      response.sampled = pending->trace->sampled();
      if (degraded) {
        pending->trace->AddFlag(trace::kDegraded);
      }
      tracer_->FinishTrace(pending->trace, response.total_ms, degraded ? "degraded" : "served");
      pending->trace = nullptr;
    }
    Count(&tenant, degraded ? kDegraded : kServed);
    metrics.queue_wait->Record(response.queue_ms);
    RecordLatency(tenant, response.total_ms, response.trace_id);
    pending->promise.set_value(std::move(response));
  }
}

void Server::FailBatch(std::vector<std::unique_ptr<PendingRequest>>& batch, Tenant& tenant,
                       const Status& status) {
  const bool is_deadline = status.code() == StatusCode::kDeadlineExceeded;
  const int64_t n = static_cast<int64_t>(batch.size());
  Count(&tenant, is_deadline ? kExpired : kFailed, n);
  FlightRecorder::Get().Record("serve", is_deadline ? "batch expired" : "batch failed", n,
                               static_cast<int64_t>(status.code()));
  trace::ScopedTraceContext no_trace(nullptr);  // As in FulfillFromLogits.
  const Clock::time_point now = Clock::now();
  for (std::unique_ptr<PendingRequest>& pending : batch) {
    if (pending->trace != nullptr) {
      pending->trace->AddFlag(is_deadline ? trace::kExpired : trace::kFailed);
      tracer_->FinishTrace(pending->trace, MillisBetween(pending->admitted_at, now),
                           is_deadline ? "expired" : "failed");
      pending->trace = nullptr;
    }
    pending->promise.set_value(status);
  }
}

void Server::ServeBatch(std::vector<std::unique_ptr<PendingRequest>> batch) {
  const ServeMetrics& metrics = GetServeMetrics();
  // The batch key pins (entry, tenant), so the whole batch shares both.
  Tenant& tenant = *tenants_[batch.front()->tenant_index];
  const std::shared_ptr<const ModelEntry> entry = batch.front()->entry;
  CircuitBreaker& breaker = *tenant.breaker;
  // Batch formation ended when the batcher handed the batch over (== now).
  const Clock::time_point formed_at = Clock::now();

  // Drop requests that expired while queued before spending a forward (or a
  // degraded gather) on them.
  std::vector<std::unique_ptr<PendingRequest>> live;
  live.reserve(batch.size());
  for (std::unique_ptr<PendingRequest>& pending : batch) {
    if (pending->deadline.armed() && pending->deadline.expired()) {
      Count(&tenant, kExpired);
      FlightRecorder::Get().Record("serve", "request expired while queued", pending->id);
      if (pending->trace != nullptr) {
        pending->trace->AddSpan("queue", pending->admitted_at, pending->dequeued_at);
        pending->trace->AddFlag(trace::kExpired);
        tracer_->FinishTrace(pending->trace, MillisBetween(pending->admitted_at, Clock::now()),
                             "expired");
        pending->trace = nullptr;
      }
      pending->promise.set_value(ErrorStatus(StatusCode::kDeadlineExceeded)
                                 << "deadline expired while queued");
    } else {
      live.push_back(std::move(pending));
    }
  }
  if (live.empty()) {
    return;
  }
  metrics.batch_occupancy->Record(static_cast<double>(live.size()));

  // Queue-wait and batch-formation attribution, per request: the serving
  // thread owns every trace in the batch from here on (the queue handoff is
  // the synchronization point), so it back-fills the spans the client thread
  // could not close. live.front() rode PopAnyUntil and paid the fairness
  // charge; the rest coalesced behind it.
  trace::RequestTrace* leader_trace = live.front()->trace;
  const uint64_t leader_trace_id = leader_trace != nullptr ? leader_trace->trace_id() : 0;
  for (const std::unique_ptr<PendingRequest>& pending : live) {
    if (pending->trace == nullptr) {
      continue;
    }
    pending->trace->AddSpan("queue", pending->admitted_at, pending->dequeued_at);
    const int batch_span = pending->trace->AddSpan("batch", pending->dequeued_at, formed_at);
    pending->trace->SetDetail(batch_span,
                              pending->trace == leader_trace ? "leader" : "follower");
    pending->trace->SetArg(batch_span, trace::Arg::kOccupancy, static_cast<int64_t>(live.size()));
    pending->trace->SetArg(batch_span, trace::Arg::kBatchKey,
                           static_cast<int64_t>(pending->batch_key));
  }
  // Ambient trace for everything downstream — breaker decisions, executor
  // unit spans, shard-runtime spans, flight-recorder events — without
  // touching their signatures. The batch shares one forward, so its shared
  // work lands on the leader's span tree; followers link to it by trace id.
  trace::ScopedTraceContext trace_ctx(leader_trace);

  if (!breaker.AllowExecution()) {
    // Breaker open: answer from this tenant's last-known-good cache, never
    // touch the failing execution path.
    Tensor lkg;
    {
      std::lock_guard<std::mutex> lock(lkg_mutex_);
      lkg = tenant.lkg;
    }
    for (const std::unique_ptr<PendingRequest>& pending : live) {
      if (pending->trace != nullptr) {
        pending->trace->AddFlag(trace::kBreaker);
      }
    }
    if (lkg.defined()) {
      FulfillFromLogits(lkg, live, tenant, /*degraded=*/true, /*retries_paid=*/0);
    } else {
      FailBatch(live, tenant,
                ErrorStatus(StatusCode::kUnavailable)
                    << "circuit breaker open (" << breaker.last_trip_reason()
                    << ") and no cached predictions available");
    }
    return;
  }
  const bool is_probe = breaker.state() == BreakerState::kHalfOpen;

  // Execute under the *most patient* deadline in the batch: abort only once
  // even the slackest request's budget is gone. Tighter requests are checked
  // individually at fulfillment. A single no-deadline request unbounds the
  // batch (the executor check stays a no-op for unarmed deadlines).
  Deadline exec_deadline;
  bool any_unarmed = false;
  Clock::time_point latest{};
  for (const std::unique_ptr<PendingRequest>& pending : live) {
    if (!pending->deadline.armed()) {
      any_unarmed = true;
      break;
    }
    latest = std::max(latest, pending->deadline.time_point());
  }
  if (!any_unarmed) {
    exec_deadline = Deadline::At(latest);
  }

  // A misbehaving tenant's faults are scoped to *its* forward: armed just
  // before execution, disarmed before fulfillment (response-tensor gathers
  // must not inherit them) and before any other tenant's batch runs. The
  // single serving thread makes this race-free.
  FaultInjector& faults = FaultInjector::Get();
  const bool tenant_faults = !tenant.config.fault_spec.empty();
  if (tenant_faults) {
    std::string spec_error;
    if (!faults.ConfigureFromSpec(tenant.config.fault_spec, &spec_error)) {
      SEASTAR_LOG(Warning) << "tenant '" << tenant.config.name << "': bad fault spec: "
                           << spec_error;
    }
  }
  int retries_paid = 0;
  const Clock::time_point exec_start = Clock::now();
  int exec_span = -1;
  if (leader_trace != nullptr) {
    exec_span = leader_trace->BeginSpan("execute");
  }
  AttemptResult result = ExecuteWithRetries(*entry, exec_deadline, &retries_paid);
  if (leader_trace != nullptr) {
    leader_trace->SetArg(exec_span, trace::Arg::kRetries, retries_paid);
    leader_trace->SetArg(exec_span, trace::Arg::kStatus,
                         static_cast<int64_t>(result.status.code()));
    leader_trace->EndSpan(exec_span);
  }
  const Clock::time_point exec_end = Clock::now();
  for (const std::unique_ptr<PendingRequest>& pending : live) {
    if (pending->trace == nullptr || pending->trace == leader_trace) {
      continue;
    }
    // Followers did not run the forward — they rode the leader's. A closed
    // mirror span carries the leader's trace id so the shared execution is
    // one hop away in the export.
    const int span = pending->trace->AddSpan("execute", exec_start, exec_end);
    pending->trace->SetArg(span, trace::Arg::kLeaderTrace, static_cast<int64_t>(leader_trace_id));
    if (retries_paid > 0) {
      pending->trace->AddFlag(trace::kRetried);
    }
  }
  if (leader_trace != nullptr && retries_paid > 0) {
    leader_trace->AddFlag(trace::kRetried);
  }
  if (tenant_faults) {
    faults.DisarmAll();
  }
  CountRetries(&tenant, retries_paid);

  if (result.status.ok()) {
    breaker.RecordSuccess();
    {
      std::lock_guard<std::mutex> lock(lkg_mutex_);
      tenant.lkg = result.logits.Clone();
    }
    FulfillFromLogits(result.logits, live, tenant, /*degraded=*/false, retries_paid);
    return;
  }

  if (result.status.code() == StatusCode::kDeadlineExceeded) {
    // Every deadline in the batch is behind the one we executed under, so
    // all of them are expired. Deadline aborts are the client's budget
    // running out, not backend sickness — the breaker doesn't count them
    // as success or failure. An aborted probe still has to release the
    // half-open state, though, or no batch would ever probe again.
    if (is_probe) {
      breaker.RecordProbeAbandoned();
    }
    FailBatch(live, tenant, result.status);
    return;
  }

  breaker.RecordFailure(result.status.message());
  Tensor lkg;
  {
    std::lock_guard<std::mutex> lock(lkg_mutex_);
    lkg = tenant.lkg;
  }
  if (lkg.defined()) {
    FulfillFromLogits(lkg, live, tenant, /*degraded=*/true, retries_paid);
  } else {
    FailBatch(live, tenant, result.status);
  }
}

void Server::Count(Tenant* tenant, Outcome outcome, int64_t n) {
  static_assert(std::size(kOutcomeNames) == kNumOutcomes &&
                std::size(kOutcomeFields) == kNumOutcomes &&
                std::size(kServerFields) == kNumOutcomes);
  std::lock_guard<std::mutex> lock(stats_mutex_);
  TenantStats& slice = tenant != nullptr ? tenant->stats : unattributed_;
  slice.*kOutcomeFields[outcome] += n;
  GetServeMetrics().outcomes[outcome]->Add(n);
  if (tenant != nullptr) {
    tenant->counters[outcome]->Add(n);
  }
}

void Server::CountRetries(Tenant* tenant, int retries_paid) {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  if (tenant != nullptr) {
    tenant->stats.retries += retries_paid;
    tenant->stats.batches += retries_paid + 1;  // Attempts = retries + the final one.
  } else {
    unattributed_.retries += retries_paid;
  }
  GetServeMetrics().retries->Add(retries_paid);
}

ServerStats Server::stats() const {
  ServerStats stats;
  {
    // One critical section reads every identity counter: a reader either
    // sees a request fully accounted (submitted + outcome) or not at all.
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats = stats_;
    const auto add = [&stats](const TenantStats& t) {
      for (int o = 0; o < kNumOutcomes; ++o) {
        stats.*kServerFields[o] += t.*kOutcomeFields[o];
      }
      stats.retries += t.retries;
    };
    add(unattributed_);
    for (const std::unique_ptr<Tenant>& tenant : tenants_) {
      add(tenant->stats);
    }
  }
  // Breaker counters sit outside the identity; each breaker's own mutex
  // keeps its counters mutually consistent.
  for (const std::unique_ptr<Tenant>& tenant : tenants_) {
    stats.breaker_trips += tenant->breaker->trips();
    stats.breaker_recoveries += tenant->breaker->recoveries();
    stats.breaker_probes += tenant->breaker->probes();
  }
  if (tracer_ != nullptr) {
    stats.trace = tracer_->stats();
  }
  return stats;
}

StatusOr<TenantStats> Server::tenant_stats(const std::string& tenant) const {
  const Tenant* t = FindTenant(tenant);
  if (t == nullptr) {
    return ErrorStatus(StatusCode::kNotFound) << "unknown tenant '" << tenant << "'";
  }
  TenantStats stats;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats = t->stats;
  }
  stats.breaker_trips = t->breaker->trips();
  stats.breaker_recoveries = t->breaker->recoveries();
  stats.breaker_probes = t->breaker->probes();
  return stats;
}

std::vector<std::string> Server::tenant_names() const {
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const std::unique_ptr<Tenant>& tenant : tenants_) {
    names.push_back(tenant->config.name);
  }
  return names;
}

StatusOr<BreakerState> Server::tenant_breaker_state(const std::string& tenant) const {
  const Tenant* t = FindTenant(tenant);
  if (t == nullptr) {
    return ErrorStatus(StatusCode::kNotFound) << "unknown tenant '" << tenant << "'";
  }
  return t->breaker->state();
}

namespace {

LatencySummary SummaryFromSnapshot(const metrics::HistogramSnapshot& snapshot) {
  LatencySummary summary;
  summary.count = snapshot.count;
  summary.p50_ms = snapshot.p50;
  summary.p95_ms = snapshot.p95;
  summary.p99_ms = snapshot.p99;
  summary.max_ms = snapshot.max;
  return summary;
}

}  // namespace

LatencySummary Server::latency_summary() const {
  return SummaryFromSnapshot(latency_hist_.Snapshot());
}

StatusOr<LatencySummary> Server::tenant_latency_summary(const std::string& tenant) const {
  const Tenant* t = FindTenant(tenant);
  if (t == nullptr) {
    return ErrorStatus(StatusCode::kNotFound) << "unknown tenant '" << tenant << "'";
  }
  return SummaryFromSnapshot(t->latency_hist.Snapshot());
}

void Server::RecordLatency(Tenant& tenant, double total_ms, uint64_t trace_id) {
  // Exemplars on the pooled histograms link tail buckets to the trace that
  // filled them; the per-tenant histogram stays plain (its tail is a subset
  // of the pooled ones).
  latency_hist_.RecordWithExemplar(total_ms, trace_id);
  tenant.latency_hist.Record(total_ms);
  GetServeMetrics().request_latency->RecordWithExemplar(total_ms, trace_id);
}

std::string Server::TracesJson() const {
  if (tracer_ == nullptr) {
    return "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}";
  }
  return tracer_->ChromeTraceJson();
}

bool Server::DumpTraces(const std::string& path) const {
  return tracer_ != nullptr && tracer_->WriteChromeTraceFile(path);
}

}  // namespace serve
}  // namespace seastar
