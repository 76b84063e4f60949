// Common interface for the evaluated GNN models (GCN, GAT, APPNP, R-GCN,
// SAGE, GIN, SGC). A model is bound to a Dataset at construction (the paper
// trains full-graph, one model per dataset) and to an Executor — the
// execution strategy its vertex programs run through (ExecutorFactory names
// them: "seastar", "dgl", "pyg", "sharded:<N>", ...). The model owns the
// resulting ExecutionSession, so per-graph prepared state (a shard
// partition) is built once at construction, not once per Forward.
#ifndef SRC_CORE_MODELS_MODEL_H_
#define SRC_CORE_MODELS_MODEL_H_

#include <string>
#include <vector>

#include "src/exec/executor.h"
#include "src/graph/datasets.h"
#include "src/tensor/autograd.h"

namespace seastar {

class GnnModel {
 public:
  virtual ~GnnModel() = default;

  // Full-graph forward pass producing per-vertex logits [N, num_classes].
  virtual Var Forward(bool training) = 0;

  // All trainable parameters (weights, biases, attention vectors,
  // embeddings) for the optimizer.
  virtual std::vector<Var> Parameters() const = 0;

  virtual const char* name() const = 0;

  // The model's private RNG (dropout etc.), checkpointed so a resumed run
  // draws the exact dropout masks the uninterrupted run would have drawn.
  // Null for models without stochastic state.
  virtual Rng* MutableRng() { return nullptr; }

  // The model's execution binding: executor + prepared graph view. Valid
  // after construction for every concrete model.
  const ExecutionSession& session() const { return session_; }

 protected:
  // Concrete models bind this in their constructor (MakeSession over the
  // dataset graph).
  ExecutionSession session_;
};

}  // namespace seastar

#endif  // SRC_CORE_MODELS_MODEL_H_
