#include "src/exec/shard_runtime.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/deadline.h"
#include "src/common/flight_recorder.h"
#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/common/tracing.h"
#include "src/parallel/channel.h"

namespace seastar {
namespace {

struct ShardCounters {
  metrics::Counter* runs;
  metrics::Counter* fallbacks;
  metrics::Counter* messages;
  metrics::Counter* bytes;
};

const ShardCounters& Counters() {
  static const ShardCounters counters = [] {
    metrics::MetricsRegistry& registry = metrics::MetricsRegistry::Get();
    ShardCounters c;
    c.runs = registry.GetCounter("seastar_shard_runs_total");
    c.fallbacks = registry.GetCounter("seastar_shard_fallbacks_total");
    c.messages = registry.GetCounter("seastar_shard_halo_messages_total");
    c.bytes = registry.GetCounter("seastar_shard_halo_bytes_total");
    return c;
  }();
  return counters;
}

// The S-typed aggregations whose shard partials combine by addition. An
// A:S sum decomposes exactly over any edge partition; max/mean do not.
bool IsAdditiveSourceAgg(OpKind kind) {
  return kind == OpKind::kAggSum || kind == OpKind::kAggMaxGrad ||
         kind == OpKind::kAggTypedToSrc;
}

// One halo transfer: `payload` rows are aligned with the exchange-plan
// segment the (from, peer) pair agreed on at partition time; `slot` selects
// the vertex input (feature phase) or additive output (combine phase).
struct HaloMessage {
  int from = -1;
  int slot = -1;
  Tensor payload;
};

using Channel = BoundedChannel<HaloMessage>;

// The per-execution cancellation token. The first worker that fails wins the
// race to store its exception and closes every exchange channel, so no peer
// ever blocks on a Push/Pop against a dead shard; everyone else observes
// either a closed channel (Push -> false, Pop -> nullopt) or the cancelled
// flag at a loop boundary and unwinds without doing further work. Unwind is
// bounded: after Cancel() no worker starts another inner run, so the
// slowest path out is one in-flight inner run plus the channel drains.
class ShardCancellation {
 public:
  ShardCancellation(std::vector<std::unique_ptr<Channel>>& feature_channels,
                    std::vector<std::unique_ptr<Channel>>& combine_channels)
      : feature_channels_(feature_channels), combine_channels_(combine_channels) {}

  // Records the calling worker's current exception (first caller wins) and
  // releases every blocked peer. Safe to call concurrently from any worker.
  void Cancel() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (error_ == nullptr) {
        error_ = std::current_exception();
      }
    }
    cancelled_.store(true, std::memory_order_release);
    for (auto& channel : feature_channels_) {
      channel->Close();
    }
    for (auto& channel : combine_channels_) {
      channel->Close();
    }
  }

  bool cancelled() const { return cancelled_.load(std::memory_order_acquire); }

  // Only meaningful after every worker joined.
  std::exception_ptr error() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return error_;
  }

 private:
  mutable std::mutex mutex_;
  std::exception_ptr error_;
  std::atomic<bool> cancelled_{false};
  std::vector<std::unique_ptr<Channel>>& feature_channels_;
  std::vector<std::unique_ptr<Channel>>& combine_channels_;
};

// Injected-failure check for one shard fault site. Returns without cost in
// healthy runs (enabled() is one relaxed load); a tripped site throws
// ShardFault, which the recovery ladder treats as transient.
void MaybeInjectShardFault(FaultSite site, int shard_id) {
  FaultInjector& faults = FaultInjector::Get();
  if (faults.enabled() && faults.ShouldFail(site)) {
    throw ShardFault(site, shard_id);
  }
}

// The inputs a GIR binds per graph granularity, deduplicated by name (the
// same feature key may be read from both endpoints).
struct InputSets {
  std::vector<std::pair<std::string, int32_t>> vertex;  // name, width
  std::vector<std::pair<std::string, int32_t>> typed;   // name, width
  std::vector<std::pair<std::string, int32_t>> edge;    // name, width
};

InputSets CollectInputs(const GirGraph& gir) {
  InputSets sets;
  const auto add = [](std::vector<std::pair<std::string, int32_t>>& list,
                      const std::string& name, int32_t width) {
    for (const auto& [existing, w] : list) {
      if (existing == name) {
        SEASTAR_CHECK_EQ(w, width) << "shard runtime: input '" << name
                                   << "' read at two widths";
        return;
      }
    }
    list.emplace_back(name, width);
  };
  for (const Node& node : gir.nodes()) {
    if (node.kind == OpKind::kInputTypedSrc) {
      add(sets.typed, node.name, node.width);
    } else if (node.kind == OpKind::kInput) {
      if (node.type == GraphType::kEdge) {
        add(sets.edge, node.name, node.width);
      } else {
        add(sets.vertex, node.name, node.width);
      }
    }
  }
  return sets;
}

// How a program output is stitched back into the global result.
enum class OutputKind {
  kOwnedRows,        // D-typed: owned rows are exact; contiguous copy.
  kEdgeRows,         // E-typed: scatter through the local->global edge map.
  kAdditiveRows,     // S-typed additive: combine partials on the owner.
  kAdditiveTyped,    // [num_types, N, w] stack of S-typed partials.
};

struct OutputInfo {
  std::string name;
  OutputKind kind = OutputKind::kOwnedRows;
  int32_t width = 1;
};

std::vector<OutputInfo> CollectOutputs(const GirGraph& gir) {
  std::vector<OutputInfo> outputs;
  for (size_t i = 0; i < gir.outputs().size(); ++i) {
    const Node& node = gir.node(gir.outputs()[i]);
    OutputInfo info;
    info.name = gir.output_names()[i];
    info.width = node.width;
    if (node.kind == OpKind::kAggTypedToSrc) {
      info.kind = OutputKind::kAdditiveTyped;
    } else if (node.type == GraphType::kEdge) {
      info.kind = OutputKind::kEdgeRows;
    } else if (node.type == GraphType::kSrc) {
      info.kind = OutputKind::kAdditiveRows;
    } else {
      info.kind = OutputKind::kOwnedRows;
    }
    outputs.push_back(std::move(info));
  }
  return outputs;
}

void CopyRows(float* dst, const float* src, int64_t rows, int64_t width) {
  if (rows > 0) {
    std::memcpy(dst, src, static_cast<size_t>(rows * width) * sizeof(float));
  }
}

// Gathers `rows` (local ids on the source side) of a [*, width] matrix into
// a packed [rows.size(), width] block.
void GatherRows(float* packed, const float* matrix, const std::vector<int32_t>& rows,
                int64_t width) {
  for (size_t i = 0; i < rows.size(); ++i) {
    std::memcpy(packed + static_cast<int64_t>(i) * width,
                matrix + static_cast<int64_t>(rows[i]) * width,
                static_cast<size_t>(width) * sizeof(float));
  }
}

void ScatterRows(float* matrix, const float* packed, const std::vector<int32_t>& rows,
                 int64_t width) {
  for (size_t i = 0; i < rows.size(); ++i) {
    std::memcpy(matrix + static_cast<int64_t>(rows[i]) * width,
                packed + static_cast<int64_t>(i) * width,
                static_cast<size_t>(width) * sizeof(float));
  }
}

void AddRows(float* matrix, const float* packed, const std::vector<int32_t>& rows,
             int64_t width, int64_t row_offset) {
  for (size_t i = 0; i < rows.size(); ++i) {
    float* out = matrix + (static_cast<int64_t>(rows[i]) + row_offset) * width;
    const float* in = packed + static_cast<int64_t>(i) * width;
    for (int64_t j = 0; j < width; ++j) {
      out[j] += in[j];
    }
  }
}

}  // namespace

ShardRuntime::ShardRuntime(ShardRuntimeOptions options)
    : options_(options) {
  SEASTAR_CHECK_GE(options_.num_shards, 1) << "ShardRuntime: need at least one shard";
}

ShardRuntime::~ShardRuntime() = default;

GraphView ShardRuntime::PrepareView(const Graph& graph) const {
  PartitionOptions partition_options;
  partition_options.num_shards = options_.num_shards;
  auto sharded =
      std::make_shared<const ShardedGraph>(Partitioner::Partition(graph, partition_options));
  return GraphView(graph, std::move(sharded));
}

Status ShardRuntime::CheckShardable(const GirGraph& gir) {
  const std::vector<std::vector<int32_t>> consumers = gir.BuildConsumerLists();
  for (const Node& node : gir.nodes()) {
    if (node.kind == OpKind::kDegree && node.type == GraphType::kSrc) {
      return ErrorStatus(StatusCode::kInvalidArgument)
             << "node " << node.id << " reads out-degree, which is partial on a "
             << "destination-partitioned shard";
    }
    const bool source_agg =
        (IsAggregation(node.kind) || node.kind == OpKind::kAggTypedToSrc) &&
        node.type == GraphType::kSrc;
    if (!source_agg) {
      continue;
    }
    if (!IsAdditiveSourceAgg(node.kind)) {
      return ErrorStatus(StatusCode::kInvalidArgument)
             << "node " << node.id << " (" << OpKindName(node.kind)
             << ") aggregates over out-edges non-additively; shard partials cannot combine";
    }
    if (!gir.IsOutput(node.id) || !consumers[static_cast<size_t>(node.id)].empty()) {
      return ErrorStatus(StatusCode::kInvalidArgument)
             << "node " << node.id << " consumes an out-edge aggregate inside the program; "
             << "a shard would observe a partial sum";
    }
  }
  return Status::Ok();
}

ThreadPool* ShardRuntime::SlicePool(int shard) const {
  std::lock_guard<std::mutex> lock(pools_mutex_);
  if (slice_pools_.empty()) {
    // Slice the process pool's parallelism across shard workers: with P
    // global participants and K shards, each shard worker (itself one OS
    // thread) gets a private pool of max(0, (P - K) / K) extra workers.
    // Private pools also keep RunOnAllWorkers single-submitter — K shard
    // workers must never drive the shared process pool concurrently.
    const int global_participants = ThreadPool::Get().num_threads() + 1;
    const int per_shard =
        std::max(0, (global_participants - options_.num_shards) / options_.num_shards);
    slice_pools_.reserve(static_cast<size_t>(options_.num_shards));
    for (int s = 0; s < options_.num_shards; ++s) {
      slice_pools_.push_back(std::make_unique<ThreadPool>(per_shard));
    }
  }
  return slice_pools_[static_cast<size_t>(shard)].get();
}

RunResult ShardRuntime::Execute(const GirGraph& gir, const GraphView& view,
                                const FeatureMap& features, const RunContext& ctx) const {
  const Graph& graph = view.graph();
  const Status shardable = CheckShardable(gir);
  if (!shardable.ok()) {
    // The program cannot run partitioned; run it whole on the inner
    // SeastarExecutor so callers still get exact results.
    Counters().fallbacks->Add(1);
    SEASTAR_LOG(Debug) << "shard runtime fallback: " << shardable.message();
    return inner_.Run(gir, graph, features, ctx);
  }

  std::shared_ptr<const ShardedGraph> sharded = view.sharded();
  if (sharded == nullptr) {
    // Caller bypassed MakeSession/PrepareView; partition per call. Correct
    // but wasteful — sessions exist to amortize exactly this.
    SEASTAR_LOG(Debug) << "shard runtime: partitioning on the fly (no prepared view)";
    sharded = std::make_shared<const ShardedGraph>(
        Partitioner::Partition(graph, PartitionOptions{options_.num_shards}));
  }

  Counters().runs->Add(1);
  trace::AmbientSpan span("shard_runtime", "exec");
  span.Set(trace::Arg::kShards, options_.num_shards);
  return ExecuteSharded(gir, graph, *sharded, features);
}

RunResult ShardRuntime::ExecuteSharded(const GirGraph& gir, const Graph& graph,
                                       const ShardedGraph& sharded,
                                       const FeatureMap& features) const {
  const int num_shards = sharded.num_shards;
  const int64_t num_vertices = graph.num_vertices();
  const int32_t num_types = graph.num_edge_types();
  const InputSets inputs = CollectInputs(gir);
  const std::vector<OutputInfo> outputs = CollectOutputs(gir);

  const int64_t vertex_like_inputs =
      static_cast<int64_t>(inputs.vertex.size() + inputs.typed.size());
  int64_t additive_outputs = 0;
  for (const OutputInfo& info : outputs) {
    if (info.kind == OutputKind::kAdditiveRows || info.kind == OutputKind::kAdditiveTyped) {
      ++additive_outputs;
    }
  }

  // Global result tensors, allocated up front on the orchestrating thread.
  // D/E outputs are written disjointly (each row has exactly one writer);
  // additive outputs start at zero and only their owner shard writes them.
  RunResult result;
  result.saved = std::make_shared<std::map<int32_t, Tensor>>();
  for (const OutputInfo& info : outputs) {
    switch (info.kind) {
      case OutputKind::kOwnedRows:
        result.outputs[info.name] = Tensor({num_vertices, info.width});
        break;
      case OutputKind::kEdgeRows:
        result.outputs[info.name] = Tensor({graph.num_edges(), info.width});
        break;
      case OutputKind::kAdditiveRows:
        result.outputs[info.name] = Tensor::Zeros({num_vertices, info.width});
        break;
      case OutputKind::kAdditiveTyped:
        result.outputs[info.name] =
            Tensor::Zeros({static_cast<int64_t>(num_types), num_vertices, info.width});
        break;
    }
  }

  // Two channels per shard — halo features inbound, partial sums inbound —
  // because the phases are not globally synchronized: a fast shard may start
  // returning partials while a slow one is still absorbing features. Each
  // capacity is the worst case a phase can put in flight, so within a phase
  // no Push blocks on a consumer that is itself blocked pushing (deadlock
  // freedom) while the queue stays bounded.
  std::vector<std::unique_ptr<Channel>> feature_channels;
  std::vector<std::unique_ptr<Channel>> combine_channels;
  feature_channels.reserve(static_cast<size_t>(num_shards));
  combine_channels.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    const GraphShard& shard = sharded.shards[static_cast<size_t>(s)];
    const size_t feature_cap = std::max<size_t>(
        1, shard.recv_plans.size() * static_cast<size_t>(vertex_like_inputs));
    const size_t combine_cap = std::max<size_t>(
        1, shard.send_plans.size() * static_cast<size_t>(additive_outputs));
    feature_channels.push_back(std::make_unique<Channel>(feature_cap));
    combine_channels.push_back(std::make_unique<Channel>(combine_cap));
  }

  // Propagate the caller's ambient deadline into the shard workers (they are
  // fresh OS threads and would otherwise run unarmed).
  const Deadline* ambient_deadline = CurrentDeadline();

  ShardCancellation cancel(feature_channels, combine_channels);

  // Per-shard message accounting (disjoint indices; no lock needed) and the
  // per-shard state that must survive between passes.
  std::vector<int64_t> shard_messages(static_cast<size_t>(num_shards), 0);
  std::vector<int64_t> shard_bytes(static_cast<size_t>(num_shards), 0);
  std::vector<FeatureMap> local_feature_sets(static_cast<size_t>(num_shards));

  // ---- Pass 1: bind local features; send halo rows. -----------------------
  const auto pass_features = [&](int shard_id) {
    const GraphShard& shard = sharded.shards[static_cast<size_t>(shard_id)];
    const int64_t owned = shard.owned_count();
    const int64_t local_n = shard.local_count();
    ScopedDeadline deadline_scope(ambient_deadline);
    CheckExecutionDeadline("shard_pass_features");

    FeatureMap& local_features = local_feature_sets[static_cast<size_t>(shard_id)];
    for (const auto& [name, width] : inputs.vertex) {
      const Tensor& global = features.vertex.at(name);
      Tensor local({local_n, width});
      CopyRows(local.data(), global.data() + shard.owned_begin * width, owned, width);
      local_features.vertex[name] = std::move(local);
    }
    for (const auto& [name, width] : inputs.typed) {
      const Tensor& global = features.typed_vertex.at(name);
      Tensor local({static_cast<int64_t>(num_types), local_n, width});
      for (int32_t t = 0; t < num_types; ++t) {
        CopyRows(local.data() + t * local_n * width,
                 global.data() + (t * num_vertices + shard.owned_begin) * width, owned,
                 width);
      }
      local_features.typed_vertex[name] = std::move(local);
    }
    for (const auto& [name, width] : inputs.edge) {
      const Tensor& global = features.edge.at(name);
      Tensor local({static_cast<int64_t>(shard.edge_global.size()), width});
      GatherRows(local.data(), global.data(), shard.edge_global, width);
      local_features.edge[name] = std::move(local);
    }

    // Send: for every peer mirroring rows we own, pack those rows of every
    // vertex-granularity input from the global tensors (an owned local row r
    // is global row owned_begin + r — the gather below uses global rows).
    int64_t sent_messages = 0;
    int64_t sent_bytes = 0;
    for (const HaloSegment& seg : shard.send_plans) {
      if (cancel.cancelled()) {
        return;  // A peer failed; stop producing work.
      }
      const int64_t rows = static_cast<int64_t>(seg.local_rows.size());
      for (size_t vi = 0; vi < inputs.vertex.size(); ++vi) {
        const auto& [name, width] = inputs.vertex[vi];
        const Tensor& global = features.vertex.at(name);
        MaybeInjectShardFault(FaultSite::kShardSend, shard_id);
        HaloMessage message;
        message.from = shard_id;
        message.slot = static_cast<int>(vi);
        message.payload = Tensor({rows, width});
        GatherRows(message.payload.data(), global.data() + shard.owned_begin * width,
                   seg.local_rows, width);
        sent_bytes += static_cast<int64_t>(message.payload.nbytes());
        ++sent_messages;
        if (!feature_channels[static_cast<size_t>(seg.peer)]->Push(std::move(message))) {
          return;  // Closed: another shard failed; unwind quietly.
        }
      }
      for (size_t ti = 0; ti < inputs.typed.size(); ++ti) {
        const auto& [name, width] = inputs.typed[ti];
        const Tensor& global = features.typed_vertex.at(name);
        MaybeInjectShardFault(FaultSite::kShardSend, shard_id);
        HaloMessage message;
        message.from = shard_id;
        message.slot = static_cast<int>(inputs.vertex.size() + ti);
        message.payload = Tensor({static_cast<int64_t>(num_types), rows, width});
        for (int32_t t = 0; t < num_types; ++t) {
          GatherRows(message.payload.data() + t * rows * width,
                     global.data() + (t * num_vertices + shard.owned_begin) * width,
                     seg.local_rows, width);
        }
        sent_bytes += static_cast<int64_t>(message.payload.nbytes());
        ++sent_messages;
        if (!feature_channels[static_cast<size_t>(seg.peer)]->Push(std::move(message))) {
          return;
        }
      }
    }
    shard_messages[static_cast<size_t>(shard_id)] += sent_messages;
    shard_bytes[static_cast<size_t>(shard_id)] += sent_bytes;
  };

  // ---- Pass 2: absorb halo, run the unchanged SeastarExecutor
  // shard-locally, stitch exact outputs, send additive partials. ------------
  const auto pass_run = [&](int shard_id) {
    const GraphShard& shard = sharded.shards[static_cast<size_t>(shard_id)];
    const int64_t owned = shard.owned_count();
    const int64_t local_n = shard.local_count();
    ScopedDeadline deadline_scope(ambient_deadline);
    CheckExecutionDeadline("shard_pass_run");
    ScopedThreadPool pool_scope(SlicePool(shard_id));
    FeatureMap& local_features = local_feature_sets[static_cast<size_t>(shard_id)];
    int64_t sent_messages = 0;
    int64_t sent_bytes = 0;

    // Drain: every owning peer sent one message per vertex-like input.
    const int64_t expected_features =
        static_cast<int64_t>(shard.recv_plans.size()) * vertex_like_inputs;
    for (int64_t received = 0; received < expected_features; ++received) {
      std::optional<HaloMessage> message =
          feature_channels[static_cast<size_t>(shard_id)]->Pop();
      if (!message.has_value()) {
        return;  // Closed mid-drain: unwinding an error elsewhere.
      }
      MaybeInjectShardFault(FaultSite::kShardRecv, shard_id);
      const HaloSegment* seg = nullptr;
      for (const HaloSegment& candidate : shard.recv_plans) {
        if (candidate.peer == message->from) {
          seg = &candidate;
          break;
        }
      }
      SEASTAR_CHECK(seg != nullptr)
          << "shard " << shard_id << ": halo message from unexpected peer " << message->from;
      if (message->slot < static_cast<int>(inputs.vertex.size())) {
        const auto& [name, width] = inputs.vertex[static_cast<size_t>(message->slot)];
        ScatterRows(local_features.vertex[name].data(), message->payload.data(),
                    seg->local_rows, width);
      } else {
        const auto& [name, width] =
            inputs.typed[static_cast<size_t>(message->slot) - inputs.vertex.size()];
        const int64_t rows = message->payload.dim(1);
        for (int32_t t = 0; t < num_types; ++t) {
          ScatterRows(local_features.typed_vertex[name].data() + t * local_n * width,
                      message->payload.data() + t * rows * width, seg->local_rows, width);
        }
      }
    }

    if (cancel.cancelled()) {
      return;  // Never start an inner run into a cancelled execution.
    }
    MaybeInjectShardFault(FaultSite::kShardWorker, shard_id);
    // No trace inside the workers, whichever thread runs the shard: spans
    // are recorded per pass by the orchestrator, and a trace is single-owner.
    trace::ScopedTraceContext no_trace(nullptr);
    RunResult local = inner_.Run(gir, shard.local, local_features, RunContext{});
    local_feature_sets[static_cast<size_t>(shard_id)] = FeatureMap{};

    // Stitch exact outputs; add this shard's own additive partial.
    for (size_t oi = 0; oi < outputs.size(); ++oi) {
      const OutputInfo& info = outputs[oi];
      const Tensor& local_out = local.outputs.at(info.name);
      Tensor& global_out = result.outputs.at(info.name);
      switch (info.kind) {
        case OutputKind::kOwnedRows:
          CopyRows(global_out.data() + shard.owned_begin * info.width, local_out.data(),
                   owned, info.width);
          break;
        case OutputKind::kEdgeRows:
          for (size_t e = 0; e < shard.edge_global.size(); ++e) {
            std::memcpy(global_out.data() +
                            static_cast<int64_t>(shard.edge_global[e]) * info.width,
                        local_out.data() + static_cast<int64_t>(e) * info.width,
                        static_cast<size_t>(info.width) * sizeof(float));
          }
          break;
        case OutputKind::kAdditiveRows: {
          // Own partial: this shard's owned rows, added into a zeroed region
          // that no other shard writes (peers contribute via the channel).
          float* dst = global_out.data() + shard.owned_begin * info.width;
          const float* src = local_out.data();
          for (int64_t k = 0; k < owned * info.width; ++k) {
            dst[k] += src[k];
          }
          break;
        }
        case OutputKind::kAdditiveTyped:
          for (int32_t t = 0; t < num_types; ++t) {
            const float* src = local_out.data() + t * local_n * info.width;
            float* dst =
                global_out.data() + (t * num_vertices + shard.owned_begin) * info.width;
            for (int64_t r = 0; r < owned; ++r) {
              for (int64_t j = 0; j < info.width; ++j) {
                dst[r * info.width + j] += src[r * info.width + j];
              }
            }
          }
          break;
      }
    }

    // Return halo partials to their owners, one message per (owner,
    // additive output).
    int additive_slot = 0;
    for (size_t oi = 0; oi < outputs.size(); ++oi) {
      const OutputInfo& info = outputs[oi];
      if (info.kind != OutputKind::kAdditiveRows && info.kind != OutputKind::kAdditiveTyped) {
        continue;
      }
      const Tensor& local_out = local.outputs.at(info.name);
      for (const HaloSegment& seg : shard.recv_plans) {
        const int64_t rows = static_cast<int64_t>(seg.local_rows.size());
        HaloMessage message;
        message.from = shard_id;
        message.slot = additive_slot;
        if (info.kind == OutputKind::kAdditiveRows) {
          message.payload = Tensor({rows, info.width});
          GatherRows(message.payload.data(), local_out.data(), seg.local_rows, info.width);
        } else {
          message.payload = Tensor({static_cast<int64_t>(num_types), rows, info.width});
          for (int32_t t = 0; t < num_types; ++t) {
            GatherRows(message.payload.data() + t * rows * info.width,
                       local_out.data() + t * local_n * info.width, seg.local_rows,
                       info.width);
          }
        }
        sent_bytes += static_cast<int64_t>(message.payload.nbytes());
        ++sent_messages;
        if (!combine_channels[static_cast<size_t>(seg.peer)]->Push(std::move(message))) {
          return;
        }
      }
      ++additive_slot;
    }
    shard_messages[static_cast<size_t>(shard_id)] += sent_messages;
    shard_bytes[static_cast<size_t>(shard_id)] += sent_bytes;
  };

  // ---- Pass 3: combine peer partials on masters. --------------------------
  const auto pass_combine = [&](int shard_id) {
    const GraphShard& shard = sharded.shards[static_cast<size_t>(shard_id)];
    ScopedDeadline deadline_scope(ambient_deadline);
    CheckExecutionDeadline("shard_pass_combine");

    // Drain partials addressed to this shard and combine deterministically:
    // own partial is already in place; peer contributions apply in ascending
    // sender shard id, so the float summation order never depends on thread
    // timing (bit-reproducible runs).
    const int64_t expected_partials =
        static_cast<int64_t>(shard.send_plans.size()) * additive_outputs;
    std::vector<std::vector<Tensor>> pending(
        static_cast<size_t>(num_shards),
        std::vector<Tensor>(static_cast<size_t>(additive_outputs)));
    for (int64_t received = 0; received < expected_partials; ++received) {
      std::optional<HaloMessage> message =
          combine_channels[static_cast<size_t>(shard_id)]->Pop();
      if (!message.has_value()) {
        return;
      }
      MaybeInjectShardFault(FaultSite::kShardCombine, shard_id);
      pending[static_cast<size_t>(message->from)][static_cast<size_t>(message->slot)] =
          std::move(message->payload);
    }
    if (cancel.cancelled()) {
      return;  // Peers are unwinding; leave the owned rows as-is.
    }
    for (int sender = 0; sender < num_shards; ++sender) {
      int slot = 0;
      for (size_t oi = 0; oi < outputs.size(); ++oi) {
        const OutputInfo& info = outputs[oi];
        if (info.kind != OutputKind::kAdditiveRows &&
            info.kind != OutputKind::kAdditiveTyped) {
          continue;
        }
        const Tensor& payload = pending[static_cast<size_t>(sender)][static_cast<size_t>(slot)];
        ++slot;
        if (!payload.defined()) {
          continue;  // That peer mirrors nothing of ours.
        }
        // The rows the sender packed are the ones we agreed to in our send
        // plan for that peer (aligned segment pair).
        const HaloSegment* seg = nullptr;
        for (const HaloSegment& candidate : shard.send_plans) {
          if (candidate.peer == sender) {
            seg = &candidate;
            break;
          }
        }
        SEASTAR_CHECK(seg != nullptr)
            << "shard " << shard_id << ": partial from peer " << sender
            << " without a matching exchange plan";
        Tensor& global_out = result.outputs.at(info.name);
        if (info.kind == OutputKind::kAdditiveRows) {
          AddRows(global_out.data() + shard.owned_begin * info.width, payload.data(),
                  seg->local_rows, info.width, 0);
        } else {
          const int64_t rows = payload.dim(1);
          for (int32_t t = 0; t < num_types; ++t) {
            AddRows(global_out.data() + (t * num_vertices + shard.owned_begin) * info.width,
                    payload.data() + t * rows * info.width, seg->local_rows, info.width, 0);
          }
        }
      }
    }
  };

  // The phases run as barrier-separated passes. Channel capacities equal each
  // phase's exact worst-case inbound, so every Push of pass N completes before
  // the first Pop of pass N+1 — no shard ever blocks on a peer inside a pass,
  // which makes the schedule a free choice. With pool workers available each
  // pass fans its shards out across threads; without them (single-core hosts)
  // the shards of a pass run back-to-back on the calling thread, so exactly
  // one contiguous slice of the feature tensors is hot at a time. That is the
  // schedule that makes sharding pay on one core: a slice fits in LLC where
  // the full tensor does not.
  const bool threaded = ThreadPool::Get().num_threads() > 0 && num_shards > 1;
  const auto run_pass = [&](const std::function<void(int)>& pass) {
    if (cancel.cancelled()) {
      return;  // An earlier pass failed; channels are closed.
    }
    if (!threaded) {
      for (int s = 0; s < num_shards; ++s) {
        try {
          pass(s);
        } catch (...) {
          cancel.Cancel();
          return;
        }
      }
      return;
    }
    std::vector<std::thread> workers;
    workers.reserve(static_cast<size_t>(num_shards));
    for (int s = 0; s < num_shards; ++s) {
      workers.emplace_back([&, s] {
        try {
          pass(s);
        } catch (...) {
          cancel.Cancel();
        }
      });
    }
    for (std::thread& worker : workers) {
      worker.join();
    }
  };

  // Pass-level spans on the ambient request trace (the serving thread calls
  // run_pass and blocks until the shard workers join, so each span brackets
  // its whole pass). The shard workers themselves have no ambient trace —
  // attribution is at pass granularity by design.
  {
    trace::AmbientSpan pass_span("shard_pass", "exec");
    pass_span.Detail("features");
    pass_span.Set(trace::Arg::kShards, num_shards);
    run_pass(pass_features);
  }
  {
    trace::AmbientSpan pass_span("shard_pass", "exec");
    pass_span.Detail("run");
    pass_span.Set(trace::Arg::kShards, num_shards);
    run_pass(pass_run);
  }
  {
    trace::AmbientSpan pass_span("shard_pass", "exec");
    pass_span.Detail("combine");
    pass_span.Set(trace::Arg::kShards, num_shards);
    run_pass(pass_combine);
  }
  if (std::exception_ptr error = cancel.error()) {
    // Every worker has joined: the unwind is complete, the channels are
    // closed and drained of influence, and the (persistent) slice pools are
    // reusable by the next Execute. Leave a breadcrumb for post-mortems —
    // recovery above us may swallow the exception entirely.
    FlightRecorder::Get().Record("shard", "execute cancelled, unwound", num_shards);
    std::rethrow_exception(error);
  }

  int64_t halo_messages = 0;
  int64_t halo_bytes = 0;
  for (int s = 0; s < num_shards; ++s) {
    halo_messages += shard_messages[static_cast<size_t>(s)];
    halo_bytes += shard_bytes[static_cast<size_t>(s)];
  }
  Counters().messages->Add(halo_messages);
  Counters().bytes->Add(halo_bytes);
  return result;
}

}  // namespace seastar
