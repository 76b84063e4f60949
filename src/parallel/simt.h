// A deterministic, CPU-hosted simulation of the SIMT execution structures the
// paper's kernel designs rely on (§6.3):
//
//  * a grid of thread blocks with a fixed block size,
//  * feature-adaptive thread (FAT) groups of 2^k <= feature_dim lanes,
//  * three block-dispatch disciplines mirroring the paper's load-balancing
//    alternatives: static partitioning, a per-block atomic counter (the
//    "persistent threads" scheme), and chunked in-order dynamic dispatch
//    (the hardware block scheduler whose block-id/schedule-time correlation
//    the paper exploits).
//
// Workers of the shared ThreadPool play the role of streaming
// multiprocessors: each worker executes one block at a time, and a block's
// cost is whatever its body executes — including masked-idle lane iterations,
// which is how under-occupancy (a 256-thread block doing 2 useful lanes of
// work) becomes a real, measurable cost on the host CPU just as it is on a
// GPU.
#ifndef SRC_PARALLEL_SIMT_H_
#define SRC_PARALLEL_SIMT_H_

#include <cstdint>
#include <functional>

namespace seastar {

// How block ids are handed to the simulated SMs.
enum class BlockSchedule {
  // Contiguous static partitioning of blocks across workers; no stealing.
  kStatic,
  // One shared atomic counter bumped once per block: the "persistent
  // threads + global vertex counter" scheme of §6.3.3. Faithfully pays one
  // contended RMW per block.
  kAtomicPerBlock,
  // Chunked in-order dynamic dispatch: blocks are consumed in increasing id
  // order but claimed a chunk at a time, modelling the (nearly free)
  // hardware block scheduler with its block-id/schedule-time correlation.
  kChunkedDynamic,
};

const char* BlockScheduleName(BlockSchedule schedule);

// Dispatch accounting for one launch, filled when SimtLaunchParams.stats is
// set. A "dispatch" is one successful work grant from the block scheduler:
// one claimed range under kStatic, one fetch_add that yielded a block under
// kAtomicPerBlock, one claimed chunk under kChunkedDynamic — the quantity
// whose per-mode contrast §6.3.3 is about. Workers count locally and merge
// once at exit, so the accounting adds no contention of its own.
struct SimtLaunchStats {
  int64_t dispatches = 0;
  int64_t blocks_run = 0;
};

struct SimtLaunchParams {
  int64_t num_blocks = 0;
  BlockSchedule schedule = BlockSchedule::kChunkedDynamic;
  // Blocks claimed per dispatch for kChunkedDynamic.
  int64_t chunk_size = 16;
  // Optional dispatch accounting (profiling); null = off.
  SimtLaunchStats* stats = nullptr;
};

// Executes body(block_id, worker_index) for every block id in [0, num_blocks)
// under the requested dispatch discipline, then returns. Blocks never run
// twice; earlier ids are dispatched no later than later ids under
// kAtomicPerBlock / kChunkedDynamic.
void LaunchBlocks(const SimtLaunchParams& params,
                  const std::function<void(int64_t, int)>& body);

// Geometry of feature-adaptive thread groups for a kernel over `num_items`
// work items (vertices) with feature width `feature_dim` (paper §6.3.1).
struct FatGeometry {
  int block_size = 256;    // Simulated threads per block.
  int group_size = 1;      // 2^k lanes per FAT group.
  int groups_per_block = 256;
  int64_t num_blocks = 0;  // Blocks needed to cover all items.

  // group_size = the largest power of two <= min(feature_dim, block_size);
  // groups_per_block = block_size / group_size;
  // num_blocks = ceil(num_items / groups_per_block).
  static FatGeometry Compute(int64_t num_items, int64_t feature_dim, int block_size = 256);

  // First item index handled by `block_id` (items are assigned contiguously,
  // groups_per_block per block).
  int64_t FirstItemOfBlock(int64_t block_id) const {
    return block_id * static_cast<int64_t>(groups_per_block);
  }
};

}  // namespace seastar

#endif  // SRC_PARALLEL_SIMT_H_
