#include "src/parallel/simt.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "src/common/fault.h"
#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/parallel/thread_pool.h"

namespace seastar {
namespace {

// Always-on per-schedule counters, resolved against the registry exactly once
// (first launch) and cached; after that each launch costs one sharded
// relaxed fetch_add per worker merge, nothing per block.
struct SimtCounters {
  metrics::Counter* launches;
  metrics::Counter* dispatches;
  metrics::Counter* blocks;
};

const SimtCounters& SimtCountersFor(BlockSchedule schedule) {
  static const auto* counters = [] {
    auto* c = new SimtCounters[static_cast<int>(BlockSchedule::kChunkedDynamic) + 1];
    metrics::MetricsRegistry& registry = metrics::MetricsRegistry::Get();
    for (int i = 0; i <= static_cast<int>(BlockSchedule::kChunkedDynamic); ++i) {
      const std::string label = std::string("{schedule=\"") +
                                BlockScheduleName(static_cast<BlockSchedule>(i)) + "\"}";
      c[i].launches = registry.GetCounter("seastar_simt_launches_total" + label);
      c[i].dispatches = registry.GetCounter("seastar_simt_dispatches_total" + label);
      c[i].blocks = registry.GetCounter("seastar_simt_blocks_total" + label);
    }
    return c;
  }();
  return counters[static_cast<int>(schedule)];
}

// Fault injection (FaultSite::kSimtWorker): stall this worker for one
// dispatch grant. A stall is latency, not failure — the launch must still
// complete with every block run exactly once, with the dynamic schedules
// shifting work to the healthy workers. One enabled() load per grant on the
// orchestration path; the per-lane kernel loops are untouched.
inline void MaybeInjectWorkerStall() {
  FaultInjector& faults = FaultInjector::Get();
  if (faults.enabled() && faults.ShouldFail(FaultSite::kSimtWorker)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace

const char* BlockScheduleName(BlockSchedule schedule) {
  switch (schedule) {
    case BlockSchedule::kStatic:
      return "static";
    case BlockSchedule::kAtomicPerBlock:
      return "atomic";
    case BlockSchedule::kChunkedDynamic:
      return "dynamic";
  }
  return "?";
}

void LaunchBlocks(const SimtLaunchParams& params,
                  const std::function<void(int64_t, int)>& body) {
  const int64_t num_blocks = params.num_blocks;
  if (num_blocks <= 0) {
    return;
  }
  ThreadPool& pool = ThreadPool::Current();
  const int participants = pool.num_threads() + 1;

  const SimtCounters& counters = SimtCountersFor(params.schedule);
  counters.launches->Add(1);

  // Each worker counts its grants locally and merges once on exit; the hot
  // dispatch loops never touch shared profiling state. The always-on metric
  // counters ride the same once-per-worker merge.
  const auto merge_stats = [stats = params.stats, &counters](int64_t dispatches, int64_t blocks) {
    counters.dispatches->Add(dispatches);
    counters.blocks->Add(blocks);
    if (stats == nullptr) {
      return;
    }
    std::atomic_ref<int64_t>(stats->dispatches).fetch_add(dispatches, std::memory_order_relaxed);
    std::atomic_ref<int64_t>(stats->blocks_run).fetch_add(blocks, std::memory_order_relaxed);
  };

  switch (params.schedule) {
    case BlockSchedule::kStatic: {
      const int64_t per_worker = (num_blocks + participants - 1) / participants;
      pool.RunOnAllWorkers([&](int worker) {
        const int64_t begin = static_cast<int64_t>(worker) * per_worker;
        const int64_t end = std::min(begin + per_worker, num_blocks);
        if (end > begin) {
          MaybeInjectWorkerStall();
        }
        for (int64_t b = begin; b < end; ++b) {
          body(b, worker);
        }
        merge_stats(end > begin ? 1 : 0, std::max<int64_t>(0, end - begin));
      });
      return;
    }
    case BlockSchedule::kAtomicPerBlock: {
      std::atomic<int64_t> next{0};
      pool.RunOnAllWorkers([&](int worker) {
        int64_t grants = 0;
        for (;;) {
          // One contended RMW per block: this is the cost the paper's
          // FA+Sorting+Atomic variant pays and FA+Sorting+Dynamic avoids.
          const int64_t b = next.fetch_add(1, std::memory_order_relaxed);
          if (b >= num_blocks) {
            merge_stats(grants, grants);
            return;
          }
          ++grants;
          MaybeInjectWorkerStall();
          body(b, worker);
        }
      });
      return;
    }
    case BlockSchedule::kChunkedDynamic: {
      const int64_t chunk = std::max<int64_t>(1, params.chunk_size);
      std::atomic<int64_t> next{0};
      pool.RunOnAllWorkers([&](int worker) {
        int64_t grants = 0;
        int64_t blocks = 0;
        for (;;) {
          const int64_t begin = next.fetch_add(chunk, std::memory_order_relaxed);
          if (begin >= num_blocks) {
            merge_stats(grants, blocks);
            return;
          }
          const int64_t end = std::min(begin + chunk, num_blocks);
          ++grants;
          MaybeInjectWorkerStall();
          blocks += end - begin;
          for (int64_t b = begin; b < end; ++b) {
            body(b, worker);
          }
        }
      });
      return;
    }
  }
  SEASTAR_LOG(Fatal) << "unknown BlockSchedule";
}

FatGeometry FatGeometry::Compute(int64_t num_items, int64_t feature_dim, int block_size) {
  SEASTAR_CHECK_GT(block_size, 0);
  SEASTAR_CHECK_GT(feature_dim, 0);
  FatGeometry geometry;
  geometry.block_size = block_size;
  int group = 1;
  while (group * 2 <= feature_dim && group * 2 <= block_size) {
    group *= 2;
  }
  geometry.group_size = group;
  geometry.groups_per_block = block_size / group;
  geometry.num_blocks =
      num_items > 0 ? (num_items + geometry.groups_per_block - 1) / geometry.groups_per_block : 0;
  return geometry;
}

}  // namespace seastar
