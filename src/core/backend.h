// Backend selection: which execution strategy runs a compiled vertex
// program. Every GNN model in src/core/models can be trained on any backend,
// which is how the paper's three-system comparison (Seastar vs DGL vs PyG)
// is realized as one codebase with three strategies.
#ifndef SRC_CORE_BACKEND_H_
#define SRC_CORE_BACKEND_H_

#include <optional>
#include <string>

#include "src/exec/baseline_executor.h"
#include "src/exec/seastar_executor.h"

namespace seastar {

enum class Backend {
  kSeastar,          // Fused kernels, vertex-parallel edge-sequential (this paper).
  kSeastarNoFusion,  // Ablation: Seastar kernels but one unit per operator.
  kDglLike,          // Whole-graph tensors + BinaryReduce + binary-search kernels.
  kPygLike,          // Whole-graph tensors, full gather/scatter materialization.
};

const char* BackendName(Backend backend);

// Parses "seastar" / "dgl" / "pyg" / "seastar-nofuse" (used by bench CLIs).
// Returns nullopt for unrecognized names so CLIs can report the bad flag and
// exit cleanly instead of aborting.
std::optional<Backend> BackendFromString(const std::string& name);

// The accepted spellings for BackendFromString, for CLI error messages.
const char* BackendChoices();

struct BackendConfig {
  Backend backend = Backend::kSeastar;
  SeastarExecutorOptions seastar_options;
  BaselineExecutorOptions baseline_options;
};

// Runs `gir` under `config`. Thin dispatch wrapper over the executors; `ctx`
// carries the per-run state (seed values, retain set) through to
// whichever executor the config selects — see RunContext in exec/runtime.h.
//
// Deprecated: constructs a throwaway executor per call and can only name the
// whole-graph strategies. Build an Executor once (ExecutorFactory::Create or
// MakeExecutor(config)) and run through an ExecutionSession instead — see
// src/exec/executor.h.
[[deprecated(
    "build an Executor via ExecutorFactory::Create / MakeExecutor and run through an "
    "ExecutionSession (src/exec/executor.h)")]]
RunResult RunWithBackend(const BackendConfig& config, const GirGraph& gir, const Graph& graph,
                         const FeatureMap& features, const RunContext& ctx = {});

// True when the backend materializes (and must keep alive for backward)
// every intermediate — i.e. the whole-graph tensor systems.
bool BackendSavesIntermediates(Backend backend);

}  // namespace seastar

#endif  // SRC_CORE_BACKEND_H_
