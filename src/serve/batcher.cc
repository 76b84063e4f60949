#include "src/serve/batcher.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"

namespace seastar {
namespace serve {
namespace {

std::chrono::steady_clock::duration FromMillis(double ms) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

}  // namespace

MicroBatcher::MicroBatcher(AdmissionQueue& queue, const BatcherOptions& options)
    : queue_(queue), options_(options) {
  SEASTAR_CHECK_GT(options.max_batch, 0);
  SEASTAR_CHECK_GE(options.max_delay_ms, 0.0);
}

std::vector<std::unique_ptr<PendingRequest>> MicroBatcher::NextBatch() {
  std::vector<std::unique_ptr<PendingRequest>> batch;

  const auto now = std::chrono::steady_clock::now();
  std::unique_ptr<PendingRequest> leader = queue_.PopAnyUntil(now + FromMillis(kIdlePollMs));
  if (leader == nullptr) {
    return batch;
  }

  // The window closes max_delay after the leader was dequeued, and never
  // extends past the leader's own deadline: holding a request to wait for
  // company it may not live to share is how batching inflates tail latency.
  auto window_end = leader->dequeued_at + FromMillis(options_.max_delay_ms);
  if (leader->deadline.armed()) {
    window_end = std::min(window_end, leader->deadline.time_point());
  }
  const uint64_t key = leader->batch_key;
  const uint32_t tenant = leader->tenant_index;
  batch.push_back(std::move(leader));

  while (static_cast<int>(batch.size()) < options_.max_batch) {
    std::unique_ptr<PendingRequest> follower = queue_.PopMatchingUntil(tenant, key, window_end);
    if (follower == nullptr) {
      break;  // Window closed (or queue closed) with no compatible request.
    }
    batch.push_back(std::move(follower));
  }

  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++batches_formed_;
    requests_batched_ += static_cast<int64_t>(batch.size());
    max_batch_observed_ = std::max(max_batch_observed_, static_cast<int>(batch.size()));
  }
  return batch;
}

int64_t MicroBatcher::batches_formed() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return batches_formed_;
}

int64_t MicroBatcher::requests_batched() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return requests_batched_;
}

int MicroBatcher::max_batch_observed() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return max_batch_observed_;
}

}  // namespace serve
}  // namespace seastar
