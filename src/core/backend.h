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

}  // namespace seastar

#endif  // SRC_CORE_BACKEND_H_
