// ExecutorFactory: spec strings -> executors.
//
// The single place that knows how to spell an execution strategy. CLIs,
// examples and tests pass the user's string straight through:
//
//   auto executor = ExecutorFactory::Create(flag_value);
//   if (!executor) { die(executor.status(), ExecutorFactory::Choices()); }
//   ExecutionSession session = MakeSession(std::move(*executor), graph);
//
// Accepted specs: "seastar", "seastar-nofuse" (alias "nofuse"), "dgl",
// "pyg", "sharded" (2 shards), "sharded:<N>". A spec is a string, not an
// enum, so a strategy with its own parameters ("sharded:4") spells the same
// way as one without.
#ifndef SRC_CORE_EXECUTOR_FACTORY_H_
#define SRC_CORE_EXECUTOR_FACTORY_H_

#include <memory>
#include <string>

#include "src/common/status.h"
#include "src/exec/executor.h"
#include "src/exec/shard_runtime.h"

namespace seastar {

// A parsed executor spec. `kind` is one of the base names above; `num_shards`
// only applies to "sharded".
struct ExecutorSpec {
  std::string kind = "seastar";
  int num_shards = 2;
};

// Parses "<kind>" or "sharded:<N>". Errors name the bad token so CLIs can
// print it next to Choices().
StatusOr<ExecutorSpec> ParseExecutorSpec(const std::string& spec);

class ExecutorFactory {
 public:
  static StatusOr<std::unique_ptr<Executor>> Create(const std::string& spec);

  // The accepted spellings, for CLI error messages.
  static const char* Choices();
};

}  // namespace seastar

#endif  // SRC_CORE_EXECUTOR_FACTORY_H_
