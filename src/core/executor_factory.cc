#include "src/core/executor_factory.h"

#include <cstdlib>

#include "src/exec/baseline_executor.h"
#include "src/exec/seastar_executor.h"

namespace seastar {

StatusOr<ExecutorSpec> ParseExecutorSpec(const std::string& spec) {
  ExecutorSpec parsed;
  const size_t colon = spec.find(':');
  const std::string kind = colon == std::string::npos ? spec : spec.substr(0, colon);
  if (kind == "seastar" || kind == "dgl" || kind == "pyg" || kind == "sharded") {
    parsed.kind = kind;
  } else if (kind == "seastar-nofuse" || kind == "nofuse") {
    parsed.kind = "seastar-nofuse";
  } else {
    return ErrorStatus(StatusCode::kInvalidArgument)
           << "unknown executor '" << spec << "' (choices: " << ExecutorFactory::Choices()
           << ")";
  }
  if (colon == std::string::npos) {
    return parsed;
  }
  if (parsed.kind != "sharded") {
    return ErrorStatus(StatusCode::kInvalidArgument)
           << "executor '" << kind << "' takes no parameter (got '" << spec << "')";
  }
  const std::string arg = spec.substr(colon + 1);
  if (arg.empty() || arg.find_first_not_of("0123456789") != std::string::npos) {
    return ErrorStatus(StatusCode::kInvalidArgument)
           << "bad shard count in '" << spec << "': want sharded:<N> with N >= 1";
  }
  const long shards = std::strtol(arg.c_str(), nullptr, 10);
  if (shards < 1 || shards > 1024) {
    return ErrorStatus(StatusCode::kInvalidArgument)
           << "shard count " << arg << " out of range [1, 1024]";
  }
  parsed.num_shards = static_cast<int>(shards);
  return parsed;
}

StatusOr<std::unique_ptr<Executor>> ExecutorFactory::Create(const std::string& spec) {
  StatusOr<ExecutorSpec> parsed = ParseExecutorSpec(spec);
  if (!parsed) {
    return parsed.status();
  }
  const std::string& kind = parsed->kind;
  if (kind == "seastar") {
    return std::unique_ptr<Executor>(std::make_unique<SeastarExecutor>());
  }
  if (kind == "seastar-nofuse") {
    SeastarExecutorOptions seastar_options;
    seastar_options.enable_fusion = false;
    return std::unique_ptr<Executor>(std::make_unique<SeastarExecutor>(seastar_options));
  }
  if (kind == "dgl" || kind == "pyg") {
    BaselineExecutorOptions baseline_options;
    baseline_options.flavor = kind == "dgl" ? BaselineFlavor::kDglLike : BaselineFlavor::kPygLike;
    return std::unique_ptr<Executor>(std::make_unique<BaselineExecutor>(baseline_options));
  }
  ShardRuntimeOptions shard_options;  // ParseExecutorSpec admits no other kind.
  shard_options.num_shards = parsed->num_shards;
  return std::unique_ptr<Executor>(std::make_unique<ShardRuntime>(shard_options));
}

const char* ExecutorFactory::Choices() { return "seastar|seastar-nofuse|dgl|pyg|sharded[:N]"; }

}  // namespace seastar
