#include "src/core/executor_factory.h"

#include <cstdlib>
#include <utility>

#include "src/common/logging.h"

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
  return Create(*parsed);
}

StatusOr<std::unique_ptr<Executor>> ExecutorFactory::Create(const ExecutorSpec& spec) {
  if (spec.kind == "seastar") {
    return std::unique_ptr<Executor>(std::make_unique<SeastarExecutor>());
  }
  if (spec.kind == "seastar-nofuse") {
    SeastarExecutorOptions seastar_options;
    seastar_options.enable_fusion = false;
    return std::unique_ptr<Executor>(std::make_unique<SeastarExecutor>(seastar_options));
  }
  if (spec.kind == "dgl" || spec.kind == "pyg") {
    BaselineExecutorOptions baseline_options;
    baseline_options.flavor =
        spec.kind == "dgl" ? BaselineFlavor::kDglLike : BaselineFlavor::kPygLike;
    return std::unique_ptr<Executor>(std::make_unique<BaselineExecutor>(baseline_options));
  }
  if (spec.kind == "sharded") {
    if (spec.num_shards < 1) {
      return ErrorStatus(StatusCode::kInvalidArgument)
             << "sharded executor needs num_shards >= 1, got " << spec.num_shards;
    }
    ShardRuntimeOptions shard_options;
    shard_options.num_shards = spec.num_shards;
    return std::unique_ptr<Executor>(std::make_unique<ShardRuntime>(shard_options));
  }
  return ErrorStatus(StatusCode::kInvalidArgument)
         << "unknown executor kind '" << spec.kind << "' (choices: " << Choices() << ")";
}

const char* ExecutorFactory::Choices() { return "seastar|seastar-nofuse|dgl|pyg|sharded[:N]"; }

std::unique_ptr<Executor> MakeExecutor(const BackendConfig& config) {
  switch (config.backend) {
    case Backend::kSeastar:
      return std::make_unique<SeastarExecutor>(config.seastar_options);
    case Backend::kSeastarNoFusion: {
      SeastarExecutorOptions options = config.seastar_options;
      options.enable_fusion = false;
      return std::make_unique<SeastarExecutor>(options);
    }
    case Backend::kDglLike: {
      BaselineExecutorOptions options = config.baseline_options;
      options.flavor = BaselineFlavor::kDglLike;
      return std::make_unique<BaselineExecutor>(options);
    }
    case Backend::kPygLike: {
      BaselineExecutorOptions options = config.baseline_options;
      options.flavor = BaselineFlavor::kPygLike;
      return std::make_unique<BaselineExecutor>(options);
    }
  }
  SEASTAR_LOG(Fatal) << "unknown backend";
  return nullptr;
}

}  // namespace seastar
