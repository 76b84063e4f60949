#include "src/core/train.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "src/common/flight_recorder.h"
#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/common/stopwatch.h"
#include "src/common/tracing.h"
#include "src/core/checkpoint.h"
#include "src/core/nn.h"
#include "src/parallel/thread_pool.h"
#include "src/tensor/allocator.h"
#include "src/tensor/autograd.h"
#include "src/tensor/ops.h"

namespace seastar {
namespace {

// Registry handles for the training loop, resolved once per process. The
// loop touches them once per epoch / recovery — far off the per-vertex hot
// path — but the same caching discipline applies: no registry lookups after
// the first epoch, which the steady-state overhead test asserts.
struct TrainMetrics {
  metrics::Counter* epochs;
  metrics::Counter* recoveries;
  metrics::Counter* checkpoints;
  metrics::Counter* checkpoint_errors;
  metrics::Counter* failures;
  metrics::Histogram* epoch_ms;
  metrics::Gauge* loss;
};

const TrainMetrics& GetTrainMetrics() {
  static const TrainMetrics metrics = [] {
    metrics::MetricsRegistry& r = metrics::MetricsRegistry::Get();
    TrainMetrics m;
    m.epochs = r.GetCounter("seastar_train_epochs_total");
    m.recoveries = r.GetCounter("seastar_train_recoveries_total");
    m.checkpoints = r.GetCounter("seastar_train_checkpoints_written_total");
    m.checkpoint_errors = r.GetCounter("seastar_train_checkpoint_errors_total");
    m.failures = r.GetCounter("seastar_train_failures_total");
    m.epoch_ms = r.GetHistogram("seastar_train_epoch_ms");
    m.loss = r.GetGauge("seastar_train_loss");
    return m;
  }();
  return metrics;
}

bool TensorFinite(const Tensor& t) {
  const float* p = t.data();
  const int64_t n = t.numel();
  // Per-epoch health scan over every gradient: chunked across the thread
  // pool (order-independent — any chunk finding a NaN/Inf flips the flag).
  constexpr int64_t kScanGrain = 65536;
  if (n <= kScanGrain) {
    for (int64_t i = 0; i < n; ++i) {
      if (!std::isfinite(p[i])) {
        return false;
      }
    }
    return true;
  }
  std::atomic<bool> finite{true};
  ParallelFor(
      n,
      [&](int64_t begin, int64_t end) {
        if (!finite.load(std::memory_order_relaxed)) {
          return;
        }
        for (int64_t i = begin; i < end; ++i) {
          if (!std::isfinite(p[i])) {
            finite.store(false, std::memory_order_relaxed);
            return;
          }
        }
      },
      kScanGrain);
  return finite.load(std::memory_order_relaxed);
}

// "" when every defined gradient is finite, else the index of the first
// offending parameter (for the recovery log).
std::string FirstNonFiniteGrad(const std::vector<Var>& parameters) {
  for (size_t p = 0; p < parameters.size(); ++p) {
    const Tensor& grad = parameters[p].grad();
    if (grad.defined() && !TensorFinite(grad)) {
      return "parameter " + std::to_string(p) + " (" + grad.ShapeString() + ")";
    }
  }
  return "";
}

// Rollback anchor / on-disk snapshot. Parameter and moment tensors are
// deep-copied: the optimizer mutates them in place every step, and a
// snapshot that shared their storage would silently track the live run.
TrainCheckpoint MakeSnapshot(GnnModel& model, const std::vector<Var>& parameters,
                             const Adam& adam, int epoch, float lr, int retries_used,
                             float best_loss) {
  TrainCheckpoint snapshot;
  snapshot.epoch = epoch;
  snapshot.learning_rate = lr;
  snapshot.retries_used = retries_used;
  snapshot.best_loss = best_loss;
  if (const Rng* rng = model.MutableRng(); rng != nullptr) {
    snapshot.model_rng = rng->SaveState();
  }
  snapshot.parameters.reserve(parameters.size());
  for (const Var& param : parameters) {
    snapshot.parameters.push_back(param.value().Clone());
  }
  snapshot.has_adam = true;
  snapshot.adam_t = adam.step_count();
  for (const Tensor& m : adam.moments_m()) {
    snapshot.adam_m.push_back(m.Clone());
  }
  for (const Tensor& v : adam.moments_v()) {
    snapshot.adam_v.push_back(v.Clone());
  }
  return snapshot;
}

// Copies a snapshot back into the live parameters / optimizer / model RNG.
// Returns a Status instead of CHECKing: a file-loaded checkpoint is
// untrusted (it may belong to a different model), and mismatches must
// surface as a structured error.
Status RestoreSnapshot(const TrainCheckpoint& snapshot, GnnModel& model,
                       std::vector<Var>& parameters, Adam& adam) {
  if (snapshot.parameters.size() != parameters.size()) {
    return ErrorStatus(StatusCode::kInvalidArgument)
           << "checkpoint holds " << snapshot.parameters.size() << " parameters, model has "
           << parameters.size();
  }
  for (size_t p = 0; p < parameters.size(); ++p) {
    Tensor& value = parameters[p].mutable_value();
    const Tensor& saved = snapshot.parameters[p];
    if (saved.shape() != value.shape()) {
      return ErrorStatus(StatusCode::kInvalidArgument)
             << "checkpoint parameter " << p << " is " << saved.ShapeString() << ", model expects "
             << value.ShapeString();
    }
  }
  if (!snapshot.has_adam) {
    return ErrorStatus(StatusCode::kInvalidArgument)
           << "checkpoint carries no Adam state but the run uses Adam";
  }
  if (snapshot.adam_m.size() != parameters.size() ||
      snapshot.adam_v.size() != parameters.size()) {
    return ErrorStatus(StatusCode::kInvalidArgument)
           << "checkpoint Adam moments do not match the parameter count";
  }
  for (size_t p = 0; p < parameters.size(); ++p) {
    Tensor& value = parameters[p].mutable_value();
    std::copy(snapshot.parameters[p].data(), snapshot.parameters[p].data() + value.numel(),
              value.data());
    parameters[p].ClearGrad();
  }
  adam.RestoreState(snapshot.adam_m, snapshot.adam_v, snapshot.adam_t);
  adam.set_learning_rate(snapshot.learning_rate);
  if (Rng* rng = model.MutableRng(); rng != nullptr && snapshot.model_rng.has_value()) {
    rng->RestoreState(*snapshot.model_rng);
  }
  return Status::Ok();
}

}  // namespace

TrainResult TrainNodeClassification(GnnModel& model, const Dataset& data,
                                    const TrainConfig& config) {
  TrainResult result;
  TensorAllocator& allocator = TensorAllocator::Get();
  allocator.SetSoftBudgetBytes(config.memory_budget_bytes);
  allocator.ClearInjectedFailure();

  std::vector<Var> parameters = model.Parameters();
  Adam adam(parameters, config.learning_rate);

  // Ends the run with a structured error; never aborts.
  const auto fail = [&](const Status& status) {
    result.failed = true;
    result.error = status.ToString();
    GetTrainMetrics().failures->Add(1);
    FlightRecorder::Get().Record("train", result.error.c_str());
    SEASTAR_LOG(Error) << "training failed: " << result.error;
    allocator.SetSoftBudgetBytes(0);
    return result;
  };

  float lr = config.learning_rate;
  float best_loss = std::numeric_limits<float>::max();
  int retries_used = 0;
  int epoch = 0;

  if (config.resume) {
    if (config.checkpoint_path.empty()) {
      return fail(Status::Error(StatusCode::kInvalidArgument,
                                "resume requested but no checkpoint_path configured"));
    }
    StatusOr<TrainCheckpoint> loaded = LoadCheckpoint(config.checkpoint_path);
    if (!loaded.has_value()) {
      return fail(loaded.status());
    }
    if (Status restored = RestoreSnapshot(*loaded, model, parameters, adam);
        !restored.ok()) {
      return fail(Status::Error(restored.code(),
                                config.checkpoint_path + ": " + restored.message()));
    }
    epoch = loaded->epoch;
    lr = loaded->learning_rate;
    retries_used = loaded->retries_used;
    best_loss = loaded->best_loss;
    result.start_epoch = epoch;
    result.epochs_run = epoch;
    if (config.verbose) {
      SEASTAR_LOG(Info) << model.name() << " resumed from " << config.checkpoint_path
                        << " at epoch " << epoch << " (lr " << lr << ")";
    }
  }

  // The rollback anchor: refreshed on the checkpoint cadence, restored on
  // every recovery. Taken up front so epoch-0 failures have a target too.
  TrainCheckpoint rollback =
      MakeSnapshot(model, parameters, adam, epoch, lr, retries_used, best_loss);

  // Refreshes the anchor and, when configured, atomically rewrites the
  // checkpoint file. A failed write (disk full, injected fault) is itself a
  // recoverable condition: it is logged as a recovery event and training
  // continues on the in-memory anchor.
  const auto take_snapshot = [&](int completed_epoch) {
    trace::AmbientSpan span("checkpoint", "checkpoint");
    span.Set(trace::Arg::kEpoch, completed_epoch);
    // Release pooled (cached, non-live) blocks so process footprint at
    // snapshot time reflects live tensors only; the next epoch re-warms the
    // pool from its own frees.
    allocator.Trim();
    rollback =
        MakeSnapshot(model, parameters, adam, completed_epoch, lr, retries_used, best_loss);
    if (config.checkpoint_path.empty()) {
      return;
    }
    if (Status saved = SaveCheckpoint(rollback, config.checkpoint_path); !saved.ok()) {
      SEASTAR_LOG(Warning) << "checkpoint write failed (continuing): " << saved.ToString();
      GetTrainMetrics().checkpoint_errors->Add(1);
      FlightRecorder::Get().Record("train", "checkpoint write failed", completed_epoch);
      result.recovery_events.push_back({.epoch = completed_epoch,
                                        .kind = "checkpoint_error",
                                        .detail = saved.ToString(),
                                        .retry = retries_used,
                                        .lr_after = lr,
                                        .rollback_epoch = -1});
    } else {
      GetTrainMetrics().checkpoints->Add(1);
      ++result.checkpoints_written;
    }
  };

  Stopwatch total_watch;
  double timed_ms = 0.0;
  int timed_epochs = 0;
  int processed_epochs = 0;  // Epochs executed in this process (for warmup).
  Tensor last_logits;

  while (epoch < config.epochs) {
    Stopwatch epoch_watch;
    allocator.ResetPeak();

    // What went wrong this epoch (null = healthy) and the log detail.
    const char* problem = nullptr;
    std::string detail;

    trace::AmbientSpan epoch_span("epoch", "train");
    epoch_span.Set(trace::Arg::kEpoch, epoch);
    const uint64_t epoch_pool_hits_before = allocator.pool_hits();
    const uint64_t epoch_fresh_mallocs_before = allocator.fresh_mallocs();
    Var logits;
    Var loss;
    float loss_value = 0.0f;
    {
      trace::AmbientSpan forward_span("forward", "train");
      logits = model.Forward(/*training=*/true);
      loss = ag::NllLoss(ag::LogSoftmax(logits), data.labels, data.train_mask);
      loss_value = loss.value().at(0);
    }
    if (!std::isfinite(loss_value)) {
      problem = "non_finite_loss";
      detail = "loss = " + std::to_string(loss_value);
    } else if (loss_value > kDivergenceLoss) {
      problem = "divergence";
      detail = "loss " + std::to_string(loss_value) + " above threshold " +
               std::to_string(kDivergenceLoss);
    }
    if (problem == nullptr) {
      trace::AmbientSpan backward_span("backward", "train");
      Backward(loss, Tensor::Ones({1}));
      if (std::string bad = FirstNonFiniteGrad(parameters); !bad.empty()) {
        problem = "non_finite_grad";
        detail = "NaN/Inf gradient in " + bad;
      }
    }
    if (problem == nullptr) {
      trace::AmbientSpan step_span("optimizer_step", "train");
      adam.Step();
      adam.ZeroGrad();
    }

    // Allocator verdicts, polled once per epoch. A soft-budget breach is the
    // paper's OOM outcome: graceful stop, oom flagged. An injected
    // allocation failure is transient by definition: recover.
    if (config.memory_budget_bytes != 0 && allocator.budget_exceeded()) {
      result.final_loss = loss_value;
      result.peak_bytes = std::max(result.peak_bytes, allocator.peak_bytes());
      result.oom = true;
      result.epochs_run = epoch + 1;
      FlightRecorder::Get().Record("train", "soft memory budget exceeded (oom stop)", epoch,
                                   static_cast<int64_t>(result.peak_bytes));
      break;
    }
    if (allocator.failure_injected()) {
      allocator.ClearInjectedFailure();
      if (problem == nullptr) {
        problem = "alloc_failure";
        detail = "injected allocation failure mid-epoch";
      }
    }

    if (problem != nullptr) {
      ++retries_used;
      ++result.rollbacks;
      GetTrainMetrics().recoveries->Add(1);
      FlightRecorder::Get().Record("train", problem, epoch, retries_used);
      {
        trace::AmbientSpan recovery_span(problem, "recovery");
        // Grads of a poisoned epoch must not leak into the retry.
        adam.ZeroGrad();
        lr *= kLrBackoff;
        // The anchor matches this model/optimizer by construction; restore
        // cannot fail here. It also sets the backed-off learning rate.
        rollback.learning_rate = lr;
        Status restored = RestoreSnapshot(rollback, model, parameters, adam);
        SEASTAR_CHECK(restored.ok()) << restored.ToString();
        // A recovery is a memory-pressure moment (the poisoned epoch's
        // tensors were just dropped): return the pool's cache to the OS
        // before retrying.
        allocator.Trim();
      }
      result.recovery_events.push_back({.epoch = epoch,
                                        .kind = problem,
                                        .detail = detail,
                                        .retry = retries_used,
                                        .lr_after = lr,
                                        .rollback_epoch = rollback.epoch});
      SEASTAR_LOG(Warning) << model.name() << " epoch " << epoch << ": " << problem << " ("
                           << detail << "); rollback to epoch " << rollback.epoch << ", lr -> "
                           << lr << " (retry " << retries_used << "/" << config.max_retries
                           << ")";
      if (retries_used > config.max_retries) {
        return fail(ErrorStatus(StatusCode::kResourceExhausted)
                    << "retries exhausted after " << retries_used << " recoveries; last failure: "
                    << problem << " at epoch " << epoch << " (" << detail << ")");
      }
      epoch = rollback.epoch;
      continue;
    }

    result.final_loss = loss_value;
    last_logits = logits.value();
    result.peak_bytes = std::max(result.peak_bytes, allocator.peak_bytes());
    best_loss = std::min(best_loss, loss_value);
    epoch_span.Set(trace::Arg::kPoolHits,
                   static_cast<int64_t>(allocator.pool_hits() - epoch_pool_hits_before));
    epoch_span.Set(trace::Arg::kPoolMisses,
                   static_cast<int64_t>(allocator.fresh_mallocs() - epoch_fresh_mallocs_before));

    const double epoch_ms = epoch_watch.ElapsedMillis();
    {
      const TrainMetrics& metrics = GetTrainMetrics();
      metrics.epochs->Add(1);
      metrics.epoch_ms->Record(epoch_ms);
      metrics.loss->Set(loss_value);
    }
    ++processed_epochs;
    if (processed_epochs > config.warmup_epochs) {
      timed_ms += epoch_ms;
      ++timed_epochs;
    }
    if (config.verbose && (epoch % 20 == 0 || epoch + 1 == config.epochs)) {
      SEASTAR_LOG(Info) << model.name() << " epoch " << epoch << " loss=" << result.final_loss
                        << " (" << epoch_ms << " ms)";
    }

    ++epoch;
    result.epochs_run = epoch;
    if (config.checkpoint_every > 0 && epoch % config.checkpoint_every == 0 &&
        epoch < config.epochs) {
      take_snapshot(epoch);
    }
  }

  // Final checkpoint so a follow-up run resumes from the end state.
  if (!result.oom && !config.checkpoint_path.empty() && result.epochs_run == config.epochs) {
    take_snapshot(config.epochs);
  }

  allocator.SetSoftBudgetBytes(0);
  result.total_seconds = total_watch.ElapsedSeconds();
  result.avg_epoch_ms = timed_epochs > 0 ? timed_ms / timed_epochs : 0.0;
  if (last_logits.defined()) {
    result.train_accuracy = Accuracy(last_logits, data.labels, data.train_mask);
  }
  return result;
}

}  // namespace seastar
