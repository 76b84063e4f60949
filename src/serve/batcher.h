// Dynamic micro-batcher: coalesce compatible requests into one forward pass.
//
// The models are full-graph — one forward computes logits for every vertex —
// so N queued requests against the same (model, graph) cost exactly one
// forward if answered together. Because the plan cache (PR 3) makes warm
// forwards allocation-free and compile-free, the marginal cost of a bigger
// batch is just the per-request row gather, which is why dynamic batching is
// worth doing even at small max_delay windows (BatchMaker's argument).
//
// Policy: take the queue's pick as the batch leader (weighted-fair across
// tenants — see AdmissionQueue), then keep admitting requests *of the same
// tenant with the same batch key* until the batch is full (max_batch), the
// batching window (max_delay_ms after the leader was dequeued) closes, or
// the leader's deadline slack says waiting longer would spend time the
// leader doesn't have. Non-matching requests stay queued for the next batch,
// preserving their arrival order. The batch key covers (model id, weights
// version, architecture, graph), so requests for different tenants or
// different weight generations are never coalesced into one forward.
#ifndef SRC_SERVE_BATCHER_H_
#define SRC_SERVE_BATCHER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/serve/admission_queue.h"
#include "src/serve/request.h"

namespace seastar {
namespace serve {

// How long NextBatch blocks for a leader before returning an empty batch
// (the serving loop's idle poll, so shutdown is noticed promptly).
inline constexpr double kIdlePollMs = 5.0;

struct BatcherOptions {
  int max_batch = 8;
  double max_delay_ms = 1.0;
};

class MicroBatcher {
 public:
  MicroBatcher(AdmissionQueue& queue, const BatcherOptions& options);

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  // Forms the next batch: empty when the queue stayed idle for the poll
  // window (or is closed and drained). All returned requests share one
  // batch_key.
  std::vector<std::unique_ptr<PendingRequest>> NextBatch();

  int64_t batches_formed() const;
  int64_t requests_batched() const;
  int max_batch_observed() const;

 private:
  AdmissionQueue& queue_;
  const BatcherOptions options_;

  mutable std::mutex stats_mutex_;
  int64_t batches_formed_ = 0;
  int64_t requests_batched_ = 0;
  int max_batch_observed_ = 0;
};

}  // namespace serve
}  // namespace seastar

#endif  // SRC_SERVE_BATCHER_H_
