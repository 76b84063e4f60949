// Quickstart: train a 2-layer GCN on a cora-sized synthetic citation graph
// with the Seastar executor.
//
//   ./quickstart [--epochs=50] [--executor=seastar|seastar-nofuse|dgl|pyg|sharded[:N]]
//                [--scale=1.0] [--checkpoint=gcn.ckpt] [--resume]
//
// Any other argument exits 1, naming it.
//
// With --checkpoint the run snapshots its full training state (parameters,
// Adam moments, RNG stream, epoch) every 10 epochs, atomically; kill it at
// any point and re-run with --resume to continue to the same final loss as
// an uninterrupted run. See docs/INTERNALS.md §9.
//
// The model's graph kernel is the one-liner of the paper's Fig. 3:
//
//   return sum([u.h * u.norm for u in v.innbs])
//
// compiled by VertexProgram::Compile into two fused GPU-style kernels
// (forward + backward) and differentiated automatically.
#include <cstdio>

#include "src/common/string_util.h"
#include "src/core/executor_factory.h"
#include "src/core/models/gcn.h"
#include "src/core/train.h"

int main(int argc, char** argv) {
  using namespace seastar;

  const std::string unknown =
      FirstUnknownFlag(argc, argv, {"epochs", "executor", "scale", "checkpoint", "resume"});
  if (!unknown.empty()) {
    std::fprintf(stderr, "unknown flag '%s'\n", unknown.c_str());
    return 1;
  }
  const int64_t epochs = FlagInt(argc, argv, "epochs", 50);
  const std::string executor_spec = FlagValue(argc, argv, "executor", "seastar");
  const double scale = FlagDouble(argc, argv, "scale", 1.0);
  const std::string checkpoint_path = FlagValue(argc, argv, "checkpoint", "");
  const bool resume = FlagBool(argc, argv, "resume", false);
  if (resume && checkpoint_path.empty()) {
    std::fprintf(stderr, "--resume requires --checkpoint=<path>\n");
    return 1;
  }

  // 1. Data: a synthetic stand-in for cora (same |V|, |E|, feature width).
  DatasetOptions options;
  options.scale = scale;
  options.max_feature_dim = 256;
  Dataset data = MakeDatasetByName("cora", options);
  std::printf("dataset: %s  %s\n", data.spec.name.c_str(), data.graph.DebugString().c_str());

  // 2. Model: 2-layer GCN, hidden 16, on the chosen executor.
  StatusOr<std::unique_ptr<Executor>> executor = ExecutorFactory::Create(executor_spec);
  if (!executor.has_value()) {
    std::fprintf(stderr, "%s\n", executor.status().ToString().c_str());
    return 1;
  }
  GcnConfig config;
  Gcn model(data, config, std::move(*executor));

  // 3. Train with the paper's protocol (cross-entropy on the train mask).
  TrainConfig train;
  train.epochs = static_cast<int>(epochs);
  train.warmup_epochs = 3;
  train.verbose = true;
  train.checkpoint_path = checkpoint_path;
  train.checkpoint_every = checkpoint_path.empty() ? 0 : 10;
  train.resume = resume;
  TrainResult result = TrainNodeClassification(model, data, train);
  if (result.failed) {
    std::fprintf(stderr, "training failed: %s\n", result.error.c_str());
    return 2;
  }

  std::printf("\nexecutor          : %s\n", model.session().executor().name());
  std::printf("epochs            : %d\n", result.epochs_run);
  std::printf("avg epoch time    : %.2f ms\n", result.avg_epoch_ms);
  std::printf("final train loss  : %.4f\n", result.final_loss);
  std::printf("train accuracy    : %.3f\n", result.train_accuracy);
  std::printf("peak tensor memory: %s\n", HumanBytes(result.peak_bytes).c_str());
  return 0;
}
