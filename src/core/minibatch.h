// Mini-batch GNN training over sampled neighborhoods — the training mode of
// the sampling-based systems (Euler, AliGraph) the paper says Seastar can
// serve as the single-GPU engine for (§8), and the "sampling the
// mini-batches in background" setting of §6.3.3.
//
// Each step samples a k-hop neighborhood block around a batch of seed
// vertices, gathers the block's features, and runs an ordinary GCN over the
// block with the loss restricted to the seeds. The block is a regular Graph
// (degree-sorted CSRs included), so the compiled vertex programs and every
// backend run on it unchanged — including the per-batch degree re-sorting
// the paper notes can be prepared off the critical path.
#ifndef SRC_CORE_MINIBATCH_H_
#define SRC_CORE_MINIBATCH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/exec/executor.h"
#include "src/graph/datasets.h"
#include "src/graph/sampling.h"

namespace seastar {

// Under an ambient trace (tracing.h) the loop records per-batch spans
// (sampling vs compute) around the executors' per-unit spans.
struct MiniBatchConfig {
  int64_t hidden_dim = 16;
  int num_layers = 2;
  // One fanout per layer (outermost hop first); <= 0 means all neighbors.
  std::vector<int> fanouts = {10, 10};
  int64_t batch_size = 64;
  int epochs = 3;
  float learning_rate = 1e-2f;
  uint64_t seed = 0xba7c4;
};

struct MiniBatchResult {
  int batches_run = 0;
  double avg_batch_ms = 0.0;
  float final_loss = 0.0f;
  float seed_accuracy = 0.0f;  // Over the last epoch's seed vertices.
};

// Trains a GCN on `data` with sampled mini-batches through `executor`.
// Every sampled block is a fresh Graph, so each batch binds a transient
// session over its block (per-graph prepared state is rebuilt per block —
// the sampling regime the whole-graph session amortization cannot help).
MiniBatchResult TrainMiniBatchGcn(const Dataset& data, const MiniBatchConfig& config,
                                  std::shared_ptr<const Executor> executor);

}  // namespace seastar

#endif  // SRC_CORE_MINIBATCH_H_
