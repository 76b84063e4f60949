// Tests for the hardened inference serving runtime (src/serve/): admission
// and shedding, micro-batching, deadline propagation into execution, retry
// under injected faults, the circuit breaker's trip/probe/recovery cycle,
// degraded (last-known-good) serving, serving a registered checkpoint's
// weights, the single-model constructor as a one-entry registry, and a soak
// run asserting the accounting identity under sustained load.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/deadline.h"
#include "src/common/fault.h"
#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/core/checkpoint.h"
#include "src/core/executor_factory.h"
#include "src/core/models/gcn.h"
#include "src/core/train.h"
#include "src/serve/admission_queue.h"
#include "src/serve/batcher.h"
#include "src/serve/circuit_breaker.h"
#include "src/serve/model_registry.h"
#include "src/serve/server.h"
#include "src/tensor/allocator.h"

namespace seastar {
namespace {

using serve::AdmissionQueue;
using serve::AdmitResult;
using serve::BreakerState;
using serve::CircuitBreaker;
using serve::InferenceRequest;
using serve::InferenceResponse;
using serve::ModelRegistry;
using serve::PendingRequest;
using serve::ServeConfig;
using serve::Server;
using serve::ServerStats;

Dataset SmallDataset() {
  DatasetOptions options;
  options.scale = 0.05;
  options.max_feature_dim = 16;
  return MakeDataset(*FindDataset("cora"), options);
}

std::shared_ptr<const Executor> SeastarBackend() {
  return ExecutorFactory::Create("seastar").value();
}

std::unique_ptr<Gcn> SmallGcn(const Dataset& data) {
  GcnConfig config;
  config.hidden_dim = 8;
  return std::make_unique<Gcn>(data, config, SeastarBackend());
}

InferenceRequest RequestFor(std::vector<int32_t> vertices, double deadline_ms = -1.0) {
  InferenceRequest request;
  request.vertices = std::move(vertices);
  request.deadline_ms = deadline_ms;
  return request;
}

// ---- Deadline primitive -------------------------------------------------------------------------

TEST(DeadlineTest, UnarmedNeverExpires) {
  Deadline d;
  EXPECT_FALSE(d.armed());
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_ms(), 1e12);
}

TEST(DeadlineTest, ArmedExpiresAfterItsWindow) {
  Deadline d = Deadline::AfterMillis(1.0);
  EXPECT_TRUE(d.armed());
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  EXPECT_TRUE(d.expired());
  EXPECT_LT(d.remaining_ms(), 0.0);
}

TEST(DeadlineTest, ScopedDeadlineInstallsAndRestores) {
  EXPECT_EQ(CurrentDeadline(), nullptr);
  Deadline outer = Deadline::AfterMillis(1000.0);
  {
    ScopedDeadline scoped_outer(&outer);
    EXPECT_EQ(CurrentDeadline(), &outer);
    Deadline inner = Deadline::AfterMillis(500.0);
    {
      ScopedDeadline scoped_inner(&inner);
      EXPECT_EQ(CurrentDeadline(), &inner);
    }
    EXPECT_EQ(CurrentDeadline(), &outer);
  }
  EXPECT_EQ(CurrentDeadline(), nullptr);
}

TEST(DeadlineTest, CheckThrowsOnlyWhenExpired) {
  Deadline fresh = Deadline::AfterMillis(60000.0);
  {
    ScopedDeadline scoped(&fresh);
    EXPECT_NO_THROW(CheckExecutionDeadline("test"));
  }
  Deadline expired = Deadline::AfterMillis(-1.0);
  {
    ScopedDeadline scoped(&expired);
    EXPECT_THROW(CheckExecutionDeadline("test site"), DeadlineExceeded);
  }
  EXPECT_NO_THROW(CheckExecutionDeadline("no deadline installed"));
}

// ---- Admission queue ----------------------------------------------------------------------------

TEST(AdmissionQueueTest, OverflowShedsWithResourceExhausted) {
  AdmissionQueue queue(2);
  EXPECT_EQ(queue.TryPush(std::make_unique<PendingRequest>()), AdmitResult::kAdmitted);
  EXPECT_EQ(queue.TryPush(std::make_unique<PendingRequest>()), AdmitResult::kAdmitted);
  EXPECT_EQ(queue.TryPush(std::make_unique<PendingRequest>()), AdmitResult::kShedCapacity);
  EXPECT_EQ(queue.shed_count(), 1);
  EXPECT_EQ(queue.size(), 2);
}

TEST(AdmissionQueueTest, CloseRejectsPushesButAllowsDrain) {
  AdmissionQueue queue(4);
  EXPECT_EQ(queue.TryPush(std::make_unique<PendingRequest>()), AdmitResult::kAdmitted);
  queue.Close();
  EXPECT_EQ(queue.TryPush(std::make_unique<PendingRequest>()), AdmitResult::kClosed);
  // Queued work stays poppable so shutdown can fulfill every promise.
  EXPECT_NE(queue.PopAnyUntil(std::chrono::steady_clock::now()), nullptr);
  EXPECT_EQ(queue.PopAnyUntil(std::chrono::steady_clock::now()), nullptr);
}

TEST(AdmissionQueueTest, PopMatchingSkipsOtherKeys) {
  AdmissionQueue queue(4);
  auto mismatched = std::make_unique<PendingRequest>();
  mismatched->batch_key = 1;
  auto matched = std::make_unique<PendingRequest>();
  matched->batch_key = 2;
  ASSERT_EQ(queue.TryPush(std::move(mismatched)), AdmitResult::kAdmitted);
  ASSERT_EQ(queue.TryPush(std::move(matched)), AdmitResult::kAdmitted);

  auto popped = queue.PopMatchingUntil(/*tenant_index=*/0, 2, std::chrono::steady_clock::now());
  ASSERT_NE(popped, nullptr);
  EXPECT_EQ(popped->batch_key, 2u);
  EXPECT_EQ(queue.size(), 1);  // The key-1 request is still queued, in order.
}

TEST(AdmissionQueueTest, QuotaShedsChargeOnlyTheBurstingTenant) {
  AdmissionQueue queue(8);
  queue.ConfigureTenant(0, /*weight=*/1.0, /*max_queued=*/0);
  queue.ConfigureTenant(1, /*weight=*/1.0, /*max_queued=*/2);
  auto request_for = [](uint32_t tenant) {
    auto p = std::make_unique<PendingRequest>();
    p->tenant_index = tenant;
    return p;
  };
  EXPECT_EQ(queue.TryPush(request_for(1)), AdmitResult::kAdmitted);
  EXPECT_EQ(queue.TryPush(request_for(1)), AdmitResult::kAdmitted);
  // Tenant 1 is at its own cap; the shared queue still has room.
  EXPECT_EQ(queue.TryPush(request_for(1)), AdmitResult::kShedQuota);
  EXPECT_EQ(queue.quota_shed_count(1), 1);
  EXPECT_EQ(queue.quota_shed_count(0), 0);
  EXPECT_EQ(queue.shed_count(), 0);  // Capacity sheds only.
  // The unconstrained tenant is unaffected.
  EXPECT_EQ(queue.TryPush(request_for(0)), AdmitResult::kAdmitted);
  EXPECT_EQ(queue.size(), 3);
  EXPECT_EQ(queue.size(1), 2);
}

TEST(AdmissionQueueTest, WeightedFairDequeueFollowsTheWeightRatio) {
  AdmissionQueue queue(64);
  queue.ConfigureTenant(0, /*weight=*/3.0, /*max_queued=*/0);
  queue.ConfigureTenant(1, /*weight=*/1.0, /*max_queued=*/0);
  for (int i = 0; i < 16; ++i) {
    for (uint32_t tenant = 0; tenant < 2; ++tenant) {
      auto p = std::make_unique<PendingRequest>();
      p->tenant_index = tenant;
      ASSERT_EQ(queue.TryPush(std::move(p)), AdmitResult::kAdmitted);
    }
  }
  // First 16 dispatches: the weight-3 tenant should get ~3/4 of them.
  int dispatched[2] = {0, 0};
  for (int i = 0; i < 16; ++i) {
    auto leader = queue.PopAnyUntil(std::chrono::steady_clock::now());
    ASSERT_NE(leader, nullptr);
    ++dispatched[leader->tenant_index];
  }
  EXPECT_EQ(dispatched[0], 12);
  EXPECT_EQ(dispatched[1], 4);
  // Work-conserving: once tenant 0 drains, tenant 1 gets every slot.
  while (queue.size(0) > 0) {
    auto leader = queue.PopAnyUntil(std::chrono::steady_clock::now());
    ASSERT_NE(leader, nullptr);
  }
  auto leader = queue.PopAnyUntil(std::chrono::steady_clock::now());
  ASSERT_NE(leader, nullptr);
  EXPECT_EQ(leader->tenant_index, 1u);
}

// ---- Circuit breaker ----------------------------------------------------------------------------

TEST(CircuitBreakerTest, TripsAfterConsecutiveFailuresAndRecoversViaProbe) {
  CircuitBreaker breaker(/*trip_after=*/3, /*probe_interval_ms=*/5.0);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);

  breaker.RecordFailure("f1");
  breaker.RecordFailure("f2");
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);  // Not yet.
  breaker.RecordFailure("f3");
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.trips(), 1);
  EXPECT_EQ(breaker.last_trip_reason(), "f3");

  EXPECT_FALSE(breaker.AllowExecution());  // Probe interval not elapsed.
  std::this_thread::sleep_for(std::chrono::milliseconds(7));
  EXPECT_TRUE(breaker.AllowExecution());  // The probe.
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_FALSE(breaker.AllowExecution());  // One probe per cycle.

  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.recoveries(), 1);
  EXPECT_TRUE(breaker.AllowExecution());
}

TEST(CircuitBreakerTest, FailedProbeReopensWithoutCountingANewTrip) {
  CircuitBreaker breaker(/*trip_after=*/1, /*probe_interval_ms=*/1.0);
  breaker.RecordFailure("down");
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_TRUE(breaker.AllowExecution());
  breaker.RecordFailure("still down");
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.trips(), 1);

  breaker.RecordFailure("failure while open does not re-trip");
  EXPECT_EQ(breaker.trips(), 1);
}

TEST(CircuitBreakerTest, AbandonedProbeReopensAndAllowsTheNextProbePromptly) {
  CircuitBreaker breaker(/*trip_after=*/1, /*probe_interval_ms=*/1000.0);
  breaker.RecordFailure("down");
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  // Force the probe without waiting out the long interval.
  breaker.RecordProbeAbandoned();  // No-op while open.
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);

  CircuitBreaker prompt(/*trip_after=*/1, /*probe_interval_ms=*/5.0);
  prompt.RecordFailure("down");
  std::this_thread::sleep_for(std::chrono::milliseconds(7));
  ASSERT_TRUE(prompt.AllowExecution());  // The probe.
  ASSERT_EQ(prompt.state(), BreakerState::kHalfOpen);

  // The probe batch aborted on a client deadline: no verdict. Without the
  // abandon transition the breaker would refuse execution forever.
  prompt.RecordProbeAbandoned();
  EXPECT_EQ(prompt.state(), BreakerState::kOpen);
  EXPECT_TRUE(prompt.AllowExecution());  // Next batch probes immediately.
  EXPECT_EQ(prompt.state(), BreakerState::kHalfOpen);
  prompt.RecordSuccess();
  EXPECT_EQ(prompt.state(), BreakerState::kClosed);
  EXPECT_EQ(prompt.recoveries(), 1);
}

TEST(CircuitBreakerTest, SuccessResetsTheConsecutiveCounter) {
  CircuitBreaker breaker(/*trip_after=*/3, /*probe_interval_ms=*/1000.0);
  breaker.RecordFailure("a");
  breaker.RecordFailure("b");
  breaker.RecordSuccess();
  breaker.RecordFailure("c");
  breaker.RecordFailure("d");
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.trips(), 0);
}

// ---- Server: happy path -------------------------------------------------------------------------

TEST(ServeTest, ServesLogitsMatchingADirectForward) {
  ScopedFaultClear clear;
  Dataset data = SmallDataset();
  auto model = SmallGcn(data);
  Tensor expected = model->Forward(/*training=*/false).value();

  ServeConfig config;
  Server server(*model, data, config);
  ASSERT_TRUE(server.Start().ok());

  StatusOr<InferenceResponse> response = server.Infer(RequestFor({0, 3, 7}));
  ASSERT_TRUE(response.has_value()) << response.status().ToString();
  EXPECT_FALSE(response->degraded);
  ASSERT_EQ(response->logits.shape(),
            (std::vector<int64_t>{3, expected.dim(1)}));
  for (int64_t j = 0; j < expected.dim(1); ++j) {
    EXPECT_FLOAT_EQ(response->logits.at(0, j), expected.at(0, j));
    EXPECT_FLOAT_EQ(response->logits.at(1, j), expected.at(3, j));
    EXPECT_FLOAT_EQ(response->logits.at(2, j), expected.at(7, j));
  }
  server.Shutdown();
}

TEST(ServeTest, InvalidRequestsAreRejectedUpFront) {
  ScopedFaultClear clear;
  Dataset data = SmallDataset();
  auto model = SmallGcn(data);
  Server server(*model, data, ServeConfig{});
  ASSERT_TRUE(server.Start().ok());

  StatusOr<InferenceResponse> empty = server.Infer(RequestFor({}));
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);

  StatusOr<InferenceResponse> out_of_range =
      server.Infer(RequestFor({static_cast<int32_t>(data.graph.num_vertices())}));
  EXPECT_EQ(out_of_range.status().code(), StatusCode::kInvalidArgument);

  const uint64_t fingerprint = server.registry().Lookup("default")->fingerprint();
  InferenceRequest wrong_model = RequestFor({0});
  wrong_model.model_fingerprint = fingerprint + 1;
  StatusOr<InferenceResponse> mismatched = server.Infer(std::move(wrong_model));
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument);

  InferenceRequest right_model = RequestFor({0});
  right_model.model_fingerprint = fingerprint;
  EXPECT_TRUE(server.Infer(std::move(right_model)).has_value());

  EXPECT_EQ(server.stats().rejected, 3);
  server.Shutdown();
}

TEST(ServeTest, CompatibleRequestsShareAForwardPass) {
  ScopedFaultClear clear;
  Dataset data = SmallDataset();
  auto model = SmallGcn(data);
  ServeConfig config;
  config.max_batch = 16;
  config.max_batch_delay_ms = 20.0;  // Wide window so the burst coalesces.
  Server server(*model, data, config);
  ASSERT_TRUE(server.Start().ok());

  std::vector<std::future<StatusOr<InferenceResponse>>> futures;
  for (int i = 0; i < 12; ++i) {
    futures.push_back(server.Submit(RequestFor({i % 5})));
  }
  int64_t max_batch_seen = 0;
  for (auto& future : futures) {
    StatusOr<InferenceResponse> response = future.get();
    ASSERT_TRUE(response.has_value()) << response.status().ToString();
    max_batch_seen = std::max<int64_t>(max_batch_seen, response->batch_size);
  }
  // At least some of the burst must have shared a forward (the first request
  // may ride alone if the worker grabbed it before the rest arrived).
  EXPECT_GT(max_batch_seen, 1);
  const ServerStats stats = server.stats();
  EXPECT_LT(stats.batches, stats.served);
  server.Shutdown();
}

// ---- Server: deadlines --------------------------------------------------------------------------

TEST(ServeTest, ExpiredDeadlineAbortsInsteadOfServing) {
  ScopedFaultClear clear;
  Dataset data = SmallDataset();
  auto model = SmallGcn(data);
  ServeConfig config;
  Server server(*model, data, config);
  ASSERT_TRUE(server.Start().ok());

  // A deadline that is already hopeless when the batch forms: the injected
  // SIMT stalls make the forward orders of magnitude slower than the budget,
  // so either the queued-expiry check or the unit-boundary check must fire.
  FaultInjector::Get().ArmProbabilistic(FaultSite::kSimtWorker, 1.0, /*seed=*/99);
  StatusOr<InferenceResponse> response = server.Infer(RequestFor({1}, /*deadline_ms=*/0.05));
  FaultInjector::Get().DisarmAll();

  ASSERT_FALSE(response.has_value());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(server.stats().expired, 1);
  server.Shutdown();
}

TEST(ServeTest, UnitBoundaryDeadlineCheckAbortsMidForward) {
  // Exercise the executor-side check directly: install an expired ambient
  // deadline and run a forward; the first unit boundary must throw.
  ScopedFaultClear clear;
  Dataset data = SmallDataset();
  auto model = SmallGcn(data);
  model->Forward(/*training=*/false);  // Warm: plans compiled, pool sized.

  Deadline expired = Deadline::AfterMillis(-1.0);
  ScopedDeadline scoped(&expired);
  EXPECT_THROW(model->Forward(/*training=*/false), DeadlineExceeded);
}

TEST(ServeTest, NoDeadlineRequestsAreNeverAborted) {
  ScopedFaultClear clear;
  Dataset data = SmallDataset();
  auto model = SmallGcn(data);
  Server server(*model, data, ServeConfig{});
  ASSERT_TRUE(server.Start().ok());
  StatusOr<InferenceResponse> response = server.Infer(RequestFor({0}, /*deadline_ms=*/-1.0));
  EXPECT_TRUE(response.has_value()) << response.status().ToString();
  server.Shutdown();
}

// ---- Server: shedding ---------------------------------------------------------------------------

TEST(ServeTest, QueueOverflowShedsWithResourceExhausted) {
  ScopedFaultClear clear;
  Dataset data = SmallDataset();
  auto model = SmallGcn(data);
  ServeConfig config;
  config.queue_capacity = 2;
  Server server(*model, data, config);
  ASSERT_TRUE(server.Start().ok());

  // Stall the serving thread so submissions pile into the bounded queue.
  FaultInjector::Get().ArmProbabilistic(FaultSite::kSimtWorker, 1.0, /*seed=*/7);
  std::vector<std::future<StatusOr<InferenceResponse>>> futures;
  for (int i = 0; i < 40; ++i) {
    futures.push_back(server.Submit(RequestFor({0})));
  }
  FaultInjector::Get().DisarmAll();

  int64_t shed = 0;
  for (auto& future : futures) {
    StatusOr<InferenceResponse> response = future.get();
    if (!response.has_value() && response.status().code() == StatusCode::kResourceExhausted) {
      ++shed;
    }
  }
  EXPECT_GT(shed, 0);
  EXPECT_EQ(server.stats().shed, shed);
  server.Shutdown();
}

TEST(ServeTest, SubmitAfterShutdownCountsAsRejectedNotSubmitted) {
  ScopedFaultClear clear;
  Dataset data = SmallDataset();
  auto model = SmallGcn(data);
  Server server(*model, data, ServeConfig{});
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.Infer(RequestFor({0})).has_value());
  server.Shutdown();

  StatusOr<InferenceResponse> late = server.Infer(RequestFor({1}));
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.rejected, 1);
  // The quiesced identity must still balance: the closed-queue rejection
  // never entered the pipeline, so it is not part of submitted.
  EXPECT_EQ(stats.submitted,
            stats.served + stats.degraded + stats.shed + stats.expired + stats.failed);
}

// ---- Server: retries ----------------------------------------------------------------------------

TEST(ServeTest, TransientFaultIsRetriedThenSucceeds) {
  ScopedFaultClear clear;
  Dataset data = SmallDataset();
  auto model = SmallGcn(data);
  ServeConfig config;
  config.max_retries = 3;
  config.retry_base_backoff_ms = 0.1;
  Server server(*model, data, config);
  ASSERT_TRUE(server.Start().ok());

  // Exactly one injected allocation fault: the first attempt of the next
  // batch latches it, the retry runs clean.
  TensorAllocator::Get().ClearInjectedFailure();
  FaultInjector::Get().Arm(FaultSite::kTensorAlloc, /*after_n=*/0, /*count=*/1);
  StatusOr<InferenceResponse> response = server.Infer(RequestFor({2, 4}));
  FaultInjector::Get().DisarmAll();

  ASSERT_TRUE(response.has_value()) << response.status().ToString();
  EXPECT_FALSE(response->degraded);
  EXPECT_GE(response->retries, 1);
  EXPECT_GE(server.stats().retries, 1);
  EXPECT_EQ(server.stats().failed, 0);
  server.Shutdown();
}

// ---- Server: circuit breaker + degraded mode ----------------------------------------------------

TEST(ServeTest, BreakerTripsServesDegradedThenRecoversViaProbe) {
  ScopedFaultClear clear;
  Dataset data = SmallDataset();
  auto model = SmallGcn(data);
  ServeConfig config;
  config.max_retries = 1;
  config.retry_base_backoff_ms = 0.05;
  config.breaker_trip_after = 2;
  config.breaker_probe_interval_ms = 5.0;
  Server server(*model, data, config);
  ASSERT_TRUE(server.Start().ok());  // Its warmup seeds the last-known-good cache.
  const auto breaker_state = [&server] { return server.tenant_breaker_state("default").value(); };

  // Sustained outage: every allocation faults, so every attempt of every
  // batch fails until disarmed.
  FaultInjector::Get().Arm(FaultSite::kTensorAlloc, /*after_n=*/0, /*count=*/1'000'000'000);
  int degraded_seen = 0;
  for (int i = 0; i < 8 && breaker_state() != BreakerState::kOpen; ++i) {
    StatusOr<InferenceResponse> during = server.Infer(RequestFor({1}));
    ASSERT_TRUE(during.has_value()) << during.status().ToString();
    if (during->degraded) {
      ++degraded_seen;
    }
  }
  EXPECT_GE(server.stats().breaker_trips, 1);

  // While open, answers come from the last-known-good cache without running
  // the model.
  StatusOr<InferenceResponse> cached = server.Infer(RequestFor({3}));
  ASSERT_TRUE(cached.has_value()) << cached.status().ToString();
  EXPECT_TRUE(cached->degraded);

  // Outage ends; the next probe (due every 5 ms) must close the breaker.
  FaultInjector::Get().DisarmAll();
  TensorAllocator::Get().ClearInjectedFailure();
  bool recovered = false;
  for (int i = 0; i < 100 && !recovered; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    StatusOr<InferenceResponse> after = server.Infer(RequestFor({5}));
    ASSERT_TRUE(after.has_value()) << after.status().ToString();
    recovered = !after->degraded;
  }
  EXPECT_TRUE(recovered);
  EXPECT_EQ(breaker_state(), BreakerState::kClosed);
  EXPECT_GE(server.stats().breaker_recoveries, 1);
  server.Shutdown();
}

TEST(ServeTest, NoFallbackCacheMeansUnavailableWhileOpen) {
  ScopedFaultClear clear;
  Dataset data = SmallDataset();
  auto model = SmallGcn(data);
  ServeConfig config;
  config.max_retries = 0;
  config.breaker_trip_after = 1;
  config.breaker_probe_interval_ms = 10000.0;  // No probe during the test.
  Server server(*model, data, config);
  // The outage starts before Start(): the warmup forward fails (logged, not
  // fatal), so there is no last-known-good cache to degrade to.
  FaultInjector::Get().Arm(FaultSite::kTensorAlloc, /*after_n=*/0, /*count=*/1'000'000'000);
  ASSERT_TRUE(server.Start().ok());

  StatusOr<InferenceResponse> first = server.Infer(RequestFor({0}));
  EXPECT_FALSE(first.has_value());  // Trips the breaker.
  StatusOr<InferenceResponse> second = server.Infer(RequestFor({0}));
  ASSERT_FALSE(second.has_value());
  EXPECT_EQ(second.status().code(), StatusCode::kUnavailable);
  FaultInjector::Get().DisarmAll();
  TensorAllocator::Get().ClearInjectedFailure();
  EXPECT_GT(server.stats().failed, 0);
  server.Shutdown();
}

// ---- Server: registered checkpoints and the single-model constructor ----------------------------

TEST(ServeTest, ServesTheWeightsOfTheRegisteredCheckpoint) {
  ScopedFaultClear clear;
  const std::string path =
      (std::filesystem::temp_directory_path() / "seastar_serve_boot.ckpt").string();
  Dataset data = SmallDataset();

  // Train a few epochs and snapshot.
  auto trained = SmallGcn(data);
  TrainConfig train;
  train.epochs = 3;
  train.warmup_epochs = 0;
  train.verbose = false;
  train.checkpoint_path = path;
  train.checkpoint_every = 1;
  TrainResult result = TrainNodeClassification(*trained, data, train);
  ASSERT_FALSE(result.failed) << result.error;
  Tensor expected = trained->Forward(/*training=*/false).value();

  // A *fresh* factory model registered from the snapshot must serve the
  // trained logits, not its random initialization.
  auto registry = std::make_shared<ModelRegistry>();
  ASSERT_TRUE(registry
                  ->Register("default", data,
                             [&data]() -> std::unique_ptr<GnnModel> { return SmallGcn(data); },
                             path)
                  .has_value());
  Server server(registry, ServeConfig{});
  ASSERT_TRUE(server.Start().ok());
  StatusOr<InferenceResponse> response = server.Infer(RequestFor({0, 1}));
  ASSERT_TRUE(response.has_value()) << response.status().ToString();
  for (int64_t j = 0; j < expected.dim(1); ++j) {
    EXPECT_FLOAT_EQ(response->logits.at(0, j), expected.at(0, j));
    EXPECT_FLOAT_EQ(response->logits.at(1, j), expected.at(1, j));
  }
  server.Shutdown();
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".prev");
}

// Server(model, data, config) is a one-entry registry that borrows `model`
// under one default tenant: the same requests against an explicitly built
// one-entry registry give bit-identical logits and equal stats.
TEST(ServeTest, SingleModelServerIsAOneEntryRegistry) {
  ScopedFaultClear clear;
  Dataset data = SmallDataset();
  auto model = SmallGcn(data);
  ServeConfig config;
  config.tracing.enabled = false;

  const auto drive = [](Server& server) {
    std::vector<Tensor> logits;
    EXPECT_TRUE(server.Start().ok());
    for (int i = 0; i < 12; ++i) {
      StatusOr<InferenceResponse> response = server.Infer(RequestFor({i % 7, 3 * i + 1}));
      EXPECT_TRUE(response.has_value()) << response.status().ToString();
      if (response.has_value()) {
        logits.push_back(response->logits);
      }
    }
    EXPECT_FALSE(server.Infer(RequestFor({})).has_value());  // Rejected by the tenant.
    InferenceRequest stranger = RequestFor({0});
    stranger.tenant = "nobody";  // Rejected, owned by no tenant.
    EXPECT_FALSE(server.Infer(std::move(stranger)).has_value());
    server.Shutdown();
    return logits;
  };

  Server implicit(*model, data, config);
  const std::vector<Tensor> implicit_logits = drive(implicit);

  auto registry = std::make_shared<ModelRegistry>();
  ASSERT_TRUE(registry->RegisterBorrowed("default", *model, data).has_value());
  ServeConfig explicit_config = config;
  explicit_config.tenants = {serve::TenantConfig{}};
  Server explicit_server(registry, explicit_config);
  const std::vector<Tensor> explicit_logits = drive(explicit_server);

  ASSERT_EQ(implicit_logits.size(), 12u);
  ASSERT_EQ(explicit_logits.size(), implicit_logits.size());
  for (size_t r = 0; r < implicit_logits.size(); ++r) {
    ASSERT_EQ(implicit_logits[r].shape(), explicit_logits[r].shape());
    EXPECT_EQ(std::memcmp(implicit_logits[r].data(), explicit_logits[r].data(),
                          static_cast<size_t>(implicit_logits[r].numel()) * sizeof(float)),
              0)
        << "response " << r;
  }
  EXPECT_EQ(implicit.tenant_names(), explicit_server.tenant_names());
  const auto fields = [](const ServerStats& s) {
    return std::vector<int64_t>{s.submitted,     s.rejected,       s.shed,
                                s.quota_shed,    s.served,         s.degraded,
                                s.expired,       s.failed,         s.retries,
                                s.batches,       s.breaker_trips,  s.breaker_recoveries,
                                s.breaker_probes, s.deadline_unit_aborts, s.swaps,
                                s.swap_failures, s.swap_retired};
  };
  EXPECT_EQ(fields(implicit.stats()), fields(explicit_server.stats()));
  EXPECT_EQ(implicit.stats().served, 12);
  EXPECT_EQ(implicit.stats().rejected, 2);
  EXPECT_EQ(implicit.tenant_stats("default")->rejected, 1);
}

// ---- Server: shutdown ---------------------------------------------------------------------------

TEST(ServeTest, ShutdownFulfillsEveryOutstandingPromise) {
  ScopedFaultClear clear;
  Dataset data = SmallDataset();
  auto model = SmallGcn(data);
  ServeConfig config;
  config.queue_capacity = 64;
  Server server(*model, data, config);
  ASSERT_TRUE(server.Start().ok());

  std::vector<std::future<StatusOr<InferenceResponse>>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(server.Submit(RequestFor({i % 3})));
  }
  server.Shutdown();
  for (auto& future : futures) {
    // Every future resolves (drained and served, or cleanly refused); a
    // broken promise would throw std::future_error here.
    EXPECT_NO_THROW(future.get());
  }
  StatusOr<InferenceResponse> after = server.Infer(RequestFor({0}));
  EXPECT_EQ(after.status().code(), StatusCode::kUnavailable);
}

// ---- Soak ---------------------------------------------------------------------------------------

TEST(ServeTest, SoakTenThousandRequestsKeepsAccountingExact) {
  ScopedFaultClear clear;
  Dataset data = SmallDataset();
  auto model = SmallGcn(data);
  ServeConfig config;
  config.queue_capacity = 32;
  config.max_retries = 2;
  config.retry_base_backoff_ms = 0.05;
  config.breaker_trip_after = 3;
  config.breaker_probe_interval_ms = 5.0;
  config.default_deadline_ms = 50.0;
  Server server(*model, data, config);
  ASSERT_TRUE(server.Start().ok());

  // Sustained mixed load with a mid-run outage. The outage is state-driven,
  // not index-driven: submission is far faster than serving, so a fixed
  // request-index window could open and close before the breaker has seen
  // three whole batches fail.
  constexpr int kRequests = 10000;
  Rng rng(4242);
  std::vector<std::future<StatusOr<InferenceResponse>>> futures;
  futures.reserve(kRequests);
  int submitted = 0;
  auto submit_async = [&](int count, double tight_deadline_every) {
    for (int i = 0; i < count; ++i, ++submitted) {
      InferenceRequest request;
      const int fan = 1 + static_cast<int>(rng.NextBounded(3));
      for (int v = 0; v < fan; ++v) {
        request.vertices.push_back(static_cast<int32_t>(
            rng.NextBounded(static_cast<uint64_t>(data.graph.num_vertices()))));
      }
      request.deadline_ms = (tight_deadline_every > 0.0 && i % 7 == 0) ? 5.0 : 0.0;
      futures.push_back(server.Submit(std::move(request)));
      if (i % 1000 == 999) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));  // Let serving breathe.
      }
    }
  };

  // Phase 1: clean burst. Phase 2: flaky allocations (retry path).
  submit_async(3000, 5.0);
  FaultInjector::Get().ArmProbabilistic(FaultSite::kTensorAlloc, 0.05, /*seed=*/11);
  submit_async(3000, 5.0);

  // Drain the async backlog so the synchronous outage probes below can't be
  // shed by a queue still full of phase-2 requests.
  while (server.queue_depth() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Phase 3: hard outage, synchronous until the breaker actually trips and
  // degraded serving is observed.
  FaultInjector::Get().Arm(FaultSite::kTensorAlloc, /*after_n=*/0, /*count=*/1'000'000'000);
  int sync_used = 0;
  const auto breaker_state = [&server] { return server.tenant_breaker_state("default").value(); };
  while (breaker_state() != BreakerState::kOpen && sync_used < 60) {
    StatusOr<InferenceResponse> r = server.Infer(RequestFor({1}));
    ASSERT_TRUE(r.has_value()) << r.status().ToString();
    ++submitted;
    ++sync_used;
  }
  ASSERT_EQ(breaker_state(), BreakerState::kOpen);
  StatusOr<InferenceResponse> during = server.Infer(RequestFor({2}));
  ++submitted;
  ++sync_used;
  ASSERT_TRUE(during.has_value()) << during.status().ToString();
  EXPECT_TRUE(during->degraded);

  // Phase 4: outage over; synchronous until a probe closes the breaker.
  FaultInjector::Get().DisarmAll();
  TensorAllocator::Get().ClearInjectedFailure();
  bool recovered = false;
  for (int i = 0; i < 100 && !recovered; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    StatusOr<InferenceResponse> r = server.Infer(RequestFor({3}));
    ASSERT_TRUE(r.has_value()) << r.status().ToString();
    ++submitted;
    ++sync_used;
    recovered = !r->degraded;
  }
  ASSERT_TRUE(recovered);
  ASSERT_LE(sync_used, 200);

  // Phase 5: clean tail up to exactly kRequests, with monotone spot checks.
  ServerStats last;
  while (submitted < kRequests) {
    submit_async(std::min(1000, kRequests - submitted), 5.0);
    ServerStats now = server.stats();
    EXPECT_GE(now.served, last.served);
    EXPECT_GE(now.shed, last.shed);
    EXPECT_GE(now.expired, last.expired);
    EXPECT_GE(now.failed, last.failed);
    EXPECT_GE(now.degraded, last.degraded);
    last = now;
  }
  for (auto& future : futures) {
    EXPECT_NO_THROW(future.get());
  }
  server.Shutdown();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, kRequests);
  // The accounting identity: every admitted request ends in exactly one bin.
  EXPECT_EQ(stats.submitted,
            stats.served + stats.degraded + stats.shed + stats.expired + stats.failed);
  // The outage must have exercised the full fault path.
  EXPECT_GT(stats.retries, 0);
  EXPECT_GE(stats.breaker_trips, 1);
  EXPECT_GT(stats.degraded, 0);
  const serve::LatencySummary latency = server.latency_summary();
  EXPECT_GT(latency.count, 0);
  EXPECT_GE(latency.p99_ms, latency.p50_ms);
}

// ---- Exported metrics ---------------------------------------------------------------------------

// The process-wide registry mirrors every ServerStats identity counter at the
// same increment sites. Tests share one registry across every Server this
// binary creates, so the assertions work on deltas: whatever this server
// reports in stats() must appear 1:1 as registry growth.
TEST(ServeTest, ExportedMetricsMirrorTheAccountingIdentity) {
  ScopedFaultClear clear;
  metrics::MetricsRegistry& registry = metrics::MetricsRegistry::Get();
  const auto counter = [&registry](const char* name) {
    return registry.GetCounter(name)->value();
  };
  const int64_t submitted0 = counter("seastar_serve_submitted_total");
  const int64_t rejected0 = counter("seastar_serve_rejected_total");
  const int64_t served0 = counter("seastar_serve_served_total");
  const int64_t degraded0 = counter("seastar_serve_degraded_total");
  const int64_t shed0 = counter("seastar_serve_shed_total");
  const int64_t expired0 = counter("seastar_serve_expired_total");
  const int64_t failed0 = counter("seastar_serve_failed_total");
  const int64_t latency_count0 =
      registry.GetHistogram("seastar_serve_request_latency_ms")->count();

  Dataset data = SmallDataset();
  auto model = SmallGcn(data);
  ServeConfig config;
  config.queue_capacity = 4;  // Tiny queue: the burst below must shed.
  Server server(*model, data, config);
  ASSERT_TRUE(server.Start().ok());

  std::vector<std::future<StatusOr<InferenceResponse>>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(server.Submit(RequestFor({i % 5})));
  }
  for (auto& future : futures) {
    EXPECT_NO_THROW(future.get());
  }
  server.Shutdown();
  // A post-shutdown submit lands in rejected — outside the identity.
  StatusOr<InferenceResponse> refused = server.Infer(RequestFor({0}));
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);

  const ServerStats stats = server.stats();
  EXPECT_EQ(counter("seastar_serve_submitted_total") - submitted0, stats.submitted);
  EXPECT_EQ(counter("seastar_serve_rejected_total") - rejected0, stats.rejected);
  EXPECT_EQ(counter("seastar_serve_served_total") - served0, stats.served);
  EXPECT_EQ(counter("seastar_serve_degraded_total") - degraded0, stats.degraded);
  EXPECT_EQ(counter("seastar_serve_shed_total") - shed0, stats.shed);
  EXPECT_EQ(counter("seastar_serve_expired_total") - expired0, stats.expired);
  EXPECT_EQ(counter("seastar_serve_failed_total") - failed0, stats.failed);
  EXPECT_GT(stats.shed, 0);     // The tiny queue actually shed.
  EXPECT_EQ(stats.rejected, 1);  // The post-shutdown probe.

  // The identity holds in the exported counters themselves, which is what
  // bench_serve and the CI gate assert against a live snapshot.
  const int64_t d_submitted = counter("seastar_serve_submitted_total") - submitted0;
  const int64_t d_outcomes = (counter("seastar_serve_served_total") - served0) +
                             (counter("seastar_serve_degraded_total") - degraded0) +
                             (counter("seastar_serve_shed_total") - shed0) +
                             (counter("seastar_serve_expired_total") - expired0) +
                             (counter("seastar_serve_failed_total") - failed0);
  EXPECT_EQ(d_submitted, d_outcomes);

  // Every served request recorded a latency sample into the registry
  // histogram (degraded/expired/failed may add more; never fewer).
  EXPECT_GE(registry.GetHistogram("seastar_serve_request_latency_ms")->count() -
                latency_count0,
            stats.served);
}

// stats() snapshots every identity counter under one lock: a reader can
// never observe submitted ahead of the outcome bins plus in-flight work.
TEST(ServeTest, StatsSnapshotIsConsistentUnderConcurrentLoad) {
  ScopedFaultClear clear;
  Dataset data = SmallDataset();
  auto model = SmallGcn(data);
  ServeConfig config;
  config.queue_capacity = 16;
  Server server(*model, data, config);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> done{false};
  std::thread reader([&server, &done] {
    while (!done.load(std::memory_order_relaxed)) {
      const ServerStats stats = server.stats();
      const int64_t outcomes =
          stats.served + stats.degraded + stats.shed + stats.expired + stats.failed;
      // Outcomes never outrun admissions, and the gap is bounded by what can
      // actually be in flight (the queue plus one serving batch).
      EXPECT_LE(outcomes, stats.submitted);
      EXPECT_GE(stats.submitted, 0);
    }
  });
  std::vector<std::future<StatusOr<InferenceResponse>>> futures;
  for (int i = 0; i < 500; ++i) {
    futures.push_back(server.Submit(RequestFor({i % 7})));
  }
  for (auto& future : futures) {
    EXPECT_NO_THROW(future.get());
  }
  done.store(true, std::memory_order_relaxed);
  reader.join();
  server.Shutdown();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted,
            stats.served + stats.degraded + stats.shed + stats.expired + stats.failed);
}

}  // namespace
}  // namespace seastar