// Full-graph node-classification training loop with the paper's measurement
// protocol (§7): N epochs, the first few discarded as warm-up, average
// per-epoch wall time and peak tensor memory reported. A soft memory budget
// reproduces the paper's OOM outcomes without exhausting host RAM.
//
// The loop is fault-tolerant: it checkpoints (atomically, with checksums),
// resumes, watches every epoch's loss and gradients for NaN/Inf and
// divergence, and recovers from transient faults (injected allocation
// failures, numerical blow-ups) by rolling back to the last snapshot with a
// learning-rate backoff, bounded by `max_retries`. Failures it cannot
// recover from come back as a structured TrainResult (failed + error) —
// TrainNodeClassification never aborts the process on runtime conditions.
#ifndef SRC_CORE_TRAIN_H_
#define SRC_CORE_TRAIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/models/model.h"
#include "src/graph/datasets.h"

namespace seastar {

// Observability: under an ambient trace (tracing.h — e.g. trace::ScopedRun
// around the call) the loop records epoch / forward / backward /
// optimizer_step spans around the executors' per-unit spans, plus
// "recovery" and "checkpoint" spans. No trace installed = no recording.
struct TrainConfig {
  int epochs = 200;
  int warmup_epochs = 3;  // Discarded from timing (paper §7).
  float learning_rate = 1e-2f;  // Adam's initial step size.
  // 0 = unlimited. When the live tensor bytes exceed this during an epoch,
  // training stops and the result is flagged oom.
  uint64_t memory_budget_bytes = 0;
  bool verbose = false;

  // ---- Fault tolerance ---------------------------------------------------

  // Snapshot cadence in completed epochs; 0 disables periodic snapshots.
  // Each snapshot both refreshes the in-memory rollback anchor and, when
  // `checkpoint_path` is set, atomically rewrites the file.
  int checkpoint_every = 0;
  // Checkpoint file; empty keeps snapshots in memory only (rollback still
  // works, resume across processes does not).
  std::string checkpoint_path;
  // Restore from `checkpoint_path` before the first epoch. The restored run
  // continues bit-identically to the uninterrupted one (parameters, Adam
  // moments and step counter, model RNG stream, epoch counter, learning
  // rate). A missing/corrupt file yields failed=true, never an abort.
  bool resume = false;
  // Recovery policy: rollback to the last snapshot with learning_rate *=
  // kLrBackoff, at most max_retries times per run; the retry budget is also
  // carried across resumes via the checkpoint.
  int max_retries = 3;
};

// The per-epoch numerical-health monitor scans the loss and every parameter
// gradient for NaN/Inf and treats a finite loss above kDivergenceLoss as
// divergence; each failure rolls back with the learning rate scaled by
// kLrBackoff.
inline constexpr float kDivergenceLoss = 1e6f;
inline constexpr float kLrBackoff = 0.5f;

// One recovery action taken by the loop, mirrored as a span (category
// "recovery") on the ambient trace.
struct RecoveryEvent {
  int epoch = 0;        // Epoch whose failure triggered the recovery.
  std::string kind;     // "non_finite_loss" | "non_finite_grad" | "divergence" |
                        // "alloc_failure" | "checkpoint_error"
  std::string detail;   // Human-readable specifics (offending parameter, loss value, ...).
  int retry = 0;        // 1-based count of recoveries so far (this run + resumed).
  float lr_after = 0;   // Learning rate in effect after the backoff.
  int rollback_epoch = 0;  // Epoch the run was rolled back to (-1 if none).
};

struct TrainResult {
  double avg_epoch_ms = 0.0;   // Over post-warmup epochs.
  double total_seconds = 0.0;
  float final_loss = 0.0f;
  float train_accuracy = 0.0f;
  uint64_t peak_bytes = 0;     // Max over epochs of tensor-allocator peak.
  bool oom = false;
  // Completed epochs toward config.epochs, including epochs restored from a
  // checkpoint on resume (start_epoch of them ran in an earlier process).
  int epochs_run = 0;
  int start_epoch = 0;

  // ---- Fault-tolerance outcome -------------------------------------------
  bool failed = false;         // Unrecoverable: bad resume or retries exhausted.
  std::string error;           // Status-style message when failed.
  int checkpoints_written = 0;
  int rollbacks = 0;
  std::vector<RecoveryEvent> recovery_events;
};

// Trains `model` on `data` (cross-entropy on data.train_mask) and reports
// the paper's metrics plus the fault-tolerance outcome.
TrainResult TrainNodeClassification(GnnModel& model, const Dataset& data,
                                    const TrainConfig& config);

}  // namespace seastar

#endif  // SRC_CORE_TRAIN_H_
