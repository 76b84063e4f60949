#include "src/core/minibatch.h"

#include <cmath>

#include "src/common/logging.h"
#include "src/common/stopwatch.h"
#include "src/common/tracing.h"
#include "src/core/nn.h"
#include "src/core/program.h"
#include "src/tensor/ops.h"

namespace seastar {

MiniBatchResult TrainMiniBatchGcn(const Dataset& data, const MiniBatchConfig& config,
                                  std::shared_ptr<const Executor> executor) {
  SEASTAR_CHECK(data.features.defined());
  SEASTAR_CHECK(executor != nullptr) << "TrainMiniBatchGcn: null executor";
  SEASTAR_CHECK_EQ(static_cast<int>(config.fanouts.size()), config.num_layers)
      << "one fanout per layer";
  Rng rng(config.seed);

  // Layers and their aggregation programs (compiled once; widths are fixed).
  std::vector<Linear> layers;
  std::vector<Var> biases;
  std::vector<VertexProgram> programs;
  int64_t in_dim = data.features.dim(1);
  for (int layer = 0; layer < config.num_layers; ++layer) {
    const bool last = layer == config.num_layers - 1;
    const int64_t out_dim = last ? data.spec.num_classes : config.hidden_dim;
    layers.emplace_back(in_dim, out_dim, /*with_bias=*/false, rng);
    biases.push_back(Var::Leaf(Tensor::Zeros({out_dim}), /*requires_grad=*/true));
    GirBuilder b;
    b.MarkOutput(AggSum(b.Src("h", static_cast<int32_t>(out_dim)) * b.Src("norm", 1)), "out");
    programs.push_back(VertexProgram::Compile(std::move(b)));
    in_dim = out_dim;
  }

  std::vector<Var> parameters;
  for (const Linear& layer : layers) {
    for (const Var& p : layer.Parameters()) {
      parameters.push_back(p);
    }
  }
  for (const Var& b : biases) {
    parameters.push_back(b);
  }
  Adam optimizer(parameters, config.learning_rate);

  MiniBatchResult result;
  double total_ms = 0.0;
  double accuracy_acc = 0.0;
  int accuracy_batches = 0;

  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    const bool last_epoch = epoch + 1 == config.epochs;
    for (const std::vector<int32_t>& seeds :
         MakeSeedBatches(data.spec.num_vertices, config.batch_size, rng)) {
      Stopwatch watch;
      trace::AmbientSpan batch_span("batch", "minibatch");
      batch_span.Set(trace::Arg::kBatch, result.batches_run);
      SampledSubgraph block;
      {
        trace::AmbientSpan sample_span("sample", "minibatch");
        block = SampleNeighborhood(data.graph, seeds, config.fanouts, rng);
      }

      // Block-local features, labels, and 1/sqrt(deg) norms.
      Var h = Var::Leaf(GatherLocalFeatures(block, data.features), /*requires_grad=*/false);
      std::vector<int32_t> labels = GatherLocalLabels(block, data.labels);
      Tensor norm({block.graph.num_vertices(), 1});
      for (int64_t v = 0; v < block.graph.num_vertices(); ++v) {
        const int64_t deg = block.graph.InDegree(static_cast<int32_t>(v));
        norm.at(v, 0) = 1.0f / std::sqrt(static_cast<float>(std::max<int64_t>(1, deg)));
      }
      Var norm_var = Var::Leaf(std::move(norm), /*requires_grad=*/false);

      // The block graph is batch-local, so the session is too; it lives
      // until Backward below finishes with the block.
      ExecutionSession block_session = MakeSession(executor, block.graph);

      for (size_t layer = 0; layer < layers.size(); ++layer) {
        Var transformed = layers[layer].Forward(h);
        Var aggregated = programs[layer].Run(
            {.vertex = {{"h", transformed}, {"norm", norm_var}}}, block_session);
        h = ag::AddRowBroadcast(aggregated, biases[layer]);
        if (layer + 1 < layers.size()) {
          h = ag::Relu(h);
        }
      }

      // Loss restricted to the seed vertices (local ids [0, num_seeds)).
      std::vector<int32_t> seed_rows(static_cast<size_t>(block.num_seeds));
      for (int64_t i = 0; i < block.num_seeds; ++i) {
        seed_rows[static_cast<size_t>(i)] = static_cast<int32_t>(i);
      }
      Var loss = ag::NllLoss(ag::LogSoftmax(h), labels, seed_rows);
      Backward(loss, Tensor::Ones({1}));
      optimizer.Step();
      optimizer.ZeroGrad();

      total_ms += watch.ElapsedMillis();
      ++result.batches_run;
      result.final_loss = loss.value().at(0);
      if (last_epoch) {
        accuracy_acc += Accuracy(h.value(), labels, seed_rows);
        ++accuracy_batches;
      }
    }
  }
  result.avg_batch_ms = result.batches_run > 0 ? total_ms / result.batches_run : 0.0;
  result.seed_accuracy =
      accuracy_batches > 0 ? static_cast<float>(accuracy_acc / accuracy_batches) : 0.0f;
  return result;
}

}  // namespace seastar
