#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/parallel/simt.h"
#include "src/parallel/thread_pool.h"

namespace seastar {
namespace {

TEST(ThreadPoolTest, RunOnAllWorkersCoversEveryWorker) {
  ThreadPool& pool = ThreadPool::Get();
  std::mutex mutex;
  std::set<int> workers;
  pool.RunOnAllWorkers([&](int worker) {
    std::lock_guard<std::mutex> lock(mutex);
    workers.insert(worker);
  });
  EXPECT_EQ(static_cast<int>(workers.size()), pool.num_threads() + 1);
}

TEST(ThreadPoolTest, ReusableAcrossCalls) {
  ThreadPool& pool = ThreadPool::Get();
  for (int round = 0; round < 10; ++round) {
    std::atomic<int> count{0};
    pool.RunOnAllWorkers([&](int) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), pool.num_threads() + 1);
  }
}

TEST(ThreadPoolTest, WorkerExceptionIsRethrownOnTheSubmittingThread) {
  ThreadPool& pool = ThreadPool::Get();
  // Every worker (and the caller) throws; exactly one exception — the first
  // recorded — must surface on the submitting thread, after the block fully
  // drained (no worker still running the dead block's fn).
  std::atomic<int> entered{0};
  bool caught = false;
  try {
    pool.RunOnAllWorkers([&](int worker) {
      entered.fetch_add(1);
      throw std::runtime_error("worker " + std::to_string(worker) + " failed");
    });
  } catch (const std::runtime_error& e) {
    caught = true;
    EXPECT_NE(std::string(e.what()).find("failed"), std::string::npos);
  }
  EXPECT_TRUE(caught);
  EXPECT_EQ(entered.load(), pool.num_threads() + 1);

  // The pool stays fully usable: the next block runs on every worker and no
  // stale exception leaks into it.
  std::atomic<int> count{0};
  pool.RunOnAllWorkers([&](int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), pool.num_threads() + 1);
}

TEST(ThreadPoolTest, SingleWorkerExceptionDoesNotLoseOtherWork) {
  ThreadPool& pool = ThreadPool::Get();
  std::atomic<int> completed{0};
  bool caught = false;
  try {
    pool.RunOnAllWorkers([&](int worker) {
      if (worker == 0) {
        throw std::logic_error("only worker 0 fails");
      }
      completed.fetch_add(1);
    });
  } catch (const std::logic_error&) {
    caught = true;
  }
  EXPECT_TRUE(caught);
  // All other lanes ran to completion before the rethrow.
  EXPECT_EQ(completed.load(), pool.num_threads());
}

TEST(ParallelForTest, SumsMatchSerial) {
  const int64_t n = 1 << 20;
  std::vector<int32_t> data(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    data[static_cast<size_t>(i)] = static_cast<int32_t>(i % 7);
  }
  std::atomic<int64_t> total{0};
  ParallelFor(n, [&](int64_t begin, int64_t end) {
    int64_t local = 0;
    for (int64_t i = begin; i < end; ++i) {
      local += data[static_cast<size_t>(i)];
    }
    total.fetch_add(local);
  });
  int64_t expected = 0;
  for (int64_t i = 0; i < n; ++i) {
    expected += i % 7;
  }
  EXPECT_EQ(total.load(), expected);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  const int64_t n = 100003;
  std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
  for (auto& h : hits) {
    h.store(0);
  }
  ParallelFor(n, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      hits[static_cast<size_t>(i)].fetch_add(1);
    }
  });
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << i;
  }
}

TEST(ParallelForTest, EmptyAndTinyRanges) {
  int calls = 0;
  ParallelFor(0, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int64_t> sum{0};
  ParallelFor(3, [&](int64_t begin, int64_t end) { sum.fetch_add(end - begin); });
  EXPECT_EQ(sum.load(), 3);
}

class LaunchBlocksTest : public ::testing::TestWithParam<BlockSchedule> {};

TEST_P(LaunchBlocksTest, EveryBlockRunsExactlyOnce) {
  const int64_t num_blocks = 4097;
  std::vector<std::atomic<int>> hits(static_cast<size_t>(num_blocks));
  for (auto& h : hits) {
    h.store(0);
  }
  SimtLaunchParams params;
  params.num_blocks = num_blocks;
  params.schedule = GetParam();
  LaunchBlocks(params, [&](int64_t block, int) {
    hits[static_cast<size_t>(block)].fetch_add(1);
  });
  for (int64_t b = 0; b < num_blocks; ++b) {
    ASSERT_EQ(hits[static_cast<size_t>(b)].load(), 1) << "block " << b;
  }
}

TEST_P(LaunchBlocksTest, WorkerIndicesValid) {
  SimtLaunchParams params;
  params.num_blocks = 100;
  params.schedule = GetParam();
  const int participants = ThreadPool::Get().num_threads() + 1;
  std::atomic<bool> ok{true};
  LaunchBlocks(params, [&](int64_t, int worker) {
    if (worker < 0 || worker >= participants) {
      ok.store(false);
    }
  });
  EXPECT_TRUE(ok.load());
}

INSTANTIATE_TEST_SUITE_P(AllSchedules, LaunchBlocksTest,
                         ::testing::Values(BlockSchedule::kStatic,
                                           BlockSchedule::kAtomicPerBlock,
                                           BlockSchedule::kChunkedDynamic),
                         [](const ::testing::TestParamInfo<BlockSchedule>& info) {
                           return BlockScheduleName(info.param);
                         });

TEST(LaunchBlocksTest, ZeroBlocksIsNoop) {
  SimtLaunchParams params;
  params.num_blocks = 0;
  int calls = 0;
  LaunchBlocks(params, [&](int64_t, int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(LaunchBlocksTest, DispatchCountsMatchScheduleMode) {
  // A dispatch is one work grant (§6.3.3): static hands each worker one
  // contiguous range, atomic one block per RMW, chunked dynamic one chunk.
  const int64_t participants = ThreadPool::Current().num_threads() + 1;
  const auto launch = [](BlockSchedule schedule, int64_t num_blocks, int64_t chunk) {
    SimtLaunchStats stats;
    SimtLaunchParams params;
    params.num_blocks = num_blocks;
    params.schedule = schedule;
    params.chunk_size = chunk;
    params.stats = &stats;
    LaunchBlocks(params, [](int64_t, int) {});
    EXPECT_EQ(stats.blocks_run, num_blocks) << BlockScheduleName(schedule);
    return stats.dispatches;
  };
  for (int64_t num_blocks : {int64_t{1}, int64_t{5}, int64_t{37}, int64_t{1000}}) {
    SCOPED_TRACE(num_blocks);
    const int64_t per_worker = (num_blocks + participants - 1) / participants;
    int64_t nonempty_ranges = 0;
    for (int64_t w = 0; w < participants; ++w) {
      if (std::min((w + 1) * per_worker, num_blocks) > w * per_worker) {
        ++nonempty_ranges;
      }
    }
    EXPECT_EQ(launch(BlockSchedule::kStatic, num_blocks, 16), nonempty_ranges);
    EXPECT_EQ(launch(BlockSchedule::kAtomicPerBlock, num_blocks, 16), num_blocks);
    for (int64_t chunk : {int64_t{1}, int64_t{16}}) {
      EXPECT_EQ(launch(BlockSchedule::kChunkedDynamic, num_blocks, chunk),
                (num_blocks + chunk - 1) / chunk)
          << "chunk " << chunk;
    }
  }
}

TEST(LaunchBlocksTest, DynamicDispatchIsRoughlyInOrderPerWorker) {
  // Under chunked dynamic dispatch each worker must observe strictly
  // increasing block ids (the paper's block-id/schedule-time correlation).
  SimtLaunchParams params;
  params.num_blocks = 10000;
  params.schedule = BlockSchedule::kChunkedDynamic;
  const int participants = ThreadPool::Get().num_threads() + 1;
  std::vector<int64_t> last_seen(static_cast<size_t>(participants), -1);
  std::atomic<bool> monotonic{true};
  LaunchBlocks(params, [&](int64_t block, int worker) {
    if (block <= last_seen[static_cast<size_t>(worker)]) {
      monotonic.store(false);
    }
    last_seen[static_cast<size_t>(worker)] = block;
  });
  EXPECT_TRUE(monotonic.load());
}

TEST(FatGeometryTest, GroupSizeIsLargestPowerOfTwoAtMostFeatureDim) {
  struct Case {
    int64_t feature_dim;
    int expected_group;
  };
  for (const auto& c : std::vector<Case>{{1, 1}, {2, 2}, {3, 2}, {16, 16}, {17, 16},
                                         {255, 128}, {256, 256}, {602, 256}, {10000, 256}}) {
    const FatGeometry g = FatGeometry::Compute(1000, c.feature_dim, 256);
    EXPECT_EQ(g.group_size, c.expected_group) << "D=" << c.feature_dim;
    EXPECT_EQ(g.groups_per_block, 256 / c.expected_group);
  }
}

TEST(FatGeometryTest, BlockCountCoversAllItems) {
  const FatGeometry g = FatGeometry::Compute(1000, 16, 256);
  EXPECT_EQ(g.groups_per_block, 16);
  EXPECT_EQ(g.num_blocks, (1000 + 15) / 16);
  EXPECT_EQ(g.FirstItemOfBlock(2), 32);
}

TEST(FatGeometryTest, PaperExample) {
  // §6.3.3: feature dim 16, block size 128 => 8 vertices per block.
  const FatGeometry g = FatGeometry::Compute(80, 16, 128);
  EXPECT_EQ(g.group_size, 16);
  EXPECT_EQ(g.groups_per_block, 8);
  EXPECT_EQ(g.num_blocks, 10);
}

}  // namespace
}  // namespace seastar
