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

// First-error capture for one Execute. The first worker whose pass body
// throws stores its exception (first caller wins) and raises the stop flag;
// workers poll stopped() at loop boundaries and the orchestrator skips the
// passes that remain. No worker ever waits on a peer inside a pass, so the
// slowest path out is one in-flight inner run finishing.
class ShardCancellation {
 public:
  // Records the calling worker's current exception. Safe to call
  // concurrently from any worker.
  void Cancel() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (error_ == nullptr) {
        error_ = std::current_exception();
      }
    }
    stopped_.store(true, std::memory_order_release);
  }

  bool stopped() const { return stopped_.load(std::memory_order_acquire); }

  // Only meaningful after every worker joined.
  std::exception_ptr error() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return error_;
  }

 private:
  mutable std::mutex mutex_;
  std::exception_ptr error_;
  std::atomic<bool> stopped_{false};
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
             int64_t width) {
  for (size_t i = 0; i < rows.size(); ++i) {
    float* out = matrix + static_cast<int64_t>(rows[i]) * width;
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
  const std::shared_ptr<const ShardedGraph>& sharded = view.sharded();
  SEASTAR_CHECK(sharded != nullptr)
      << "ShardRuntime: the view carries no partition; bind the graph with "
      << "MakeSession or PrepareView";
  SEASTAR_CHECK(sharded->num_shards == options_.num_shards)
      << "ShardRuntime: view partitioned into " << sharded->num_shards
      << " shards, runtime runs " << options_.num_shards;

  const Graph& graph = view.graph();
  const Status shardable = CheckShardable(gir);
  if (!shardable.ok()) {
    // The program cannot run partitioned; run it whole on the inner
    // SeastarExecutor so callers still get exact results.
    Counters().fallbacks->Add(1);
    SEASTAR_LOG(Debug) << "shard runtime fallback: " << shardable.message();
    return inner_.Run(gir, graph, features, ctx);
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

  const size_t vertex_like_inputs = inputs.vertex.size() + inputs.typed.size();
  std::vector<OutputInfo> additive;
  for (const OutputInfo& info : outputs) {
    if (info.kind == OutputKind::kAdditiveRows || info.kind == OutputKind::kAdditiveTyped) {
      additive.push_back(info);
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

  // Per-pass mailboxes: one outbox per shard, written only by that shard
  // during the pass and read by its peers only after the pass has joined.
  // features_out[s] holds one payload per (send_plans[i], vertex-like input),
  // partials_out[s] one per (recv_plans[i], additive output); a reader finds
  // the payloads addressed to it through its own segment's peer_index and
  // moves each out, releasing it as soon as it is applied.
  std::vector<std::vector<Tensor>> features_out(static_cast<size_t>(num_shards));
  std::vector<std::vector<Tensor>> partials_out(static_cast<size_t>(num_shards));

  // Propagate the caller's ambient deadline into the shard workers (they are
  // fresh OS threads and would otherwise run unarmed).
  const Deadline* ambient_deadline = CurrentDeadline();

  ShardCancellation cancel;

  // Per-shard message accounting (disjoint indices; no lock needed) and the
  // per-shard state that must survive between passes.
  std::vector<int64_t> shard_messages(static_cast<size_t>(num_shards), 0);
  std::vector<int64_t> shard_bytes(static_cast<size_t>(num_shards), 0);
  std::vector<FeatureMap> local_feature_sets(static_cast<size_t>(num_shards));

  // Records one outgoing payload in the sender's accounting and outbox.
  const auto post = [&](int shard_id, std::vector<Tensor>& outbox, Tensor payload) {
    shard_bytes[static_cast<size_t>(shard_id)] += static_cast<int64_t>(payload.nbytes());
    ++shard_messages[static_cast<size_t>(shard_id)];
    outbox.push_back(std::move(payload));
  };

  // ---- Pass 1: bind local features; post halo rows. -----------------------
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

    // Post: for every peer mirroring rows we own, pack those rows of every
    // vertex-granularity input from the global tensors (an owned local row r
    // is global row owned_begin + r — the gather below uses global rows).
    std::vector<Tensor>& outbox = features_out[static_cast<size_t>(shard_id)];
    for (const HaloSegment& seg : shard.send_plans) {
      if (cancel.stopped()) {
        return;  // A peer failed; stop producing work.
      }
      const int64_t rows = static_cast<int64_t>(seg.local_rows.size());
      for (const auto& [name, width] : inputs.vertex) {
        const Tensor& global = features.vertex.at(name);
        MaybeInjectShardFault(FaultSite::kShardSend, shard_id);
        Tensor payload({rows, width});
        GatherRows(payload.data(), global.data() + shard.owned_begin * width, seg.local_rows,
                   width);
        post(shard_id, outbox, std::move(payload));
      }
      for (const auto& [name, width] : inputs.typed) {
        const Tensor& global = features.typed_vertex.at(name);
        MaybeInjectShardFault(FaultSite::kShardSend, shard_id);
        Tensor payload({static_cast<int64_t>(num_types), rows, width});
        for (int32_t t = 0; t < num_types; ++t) {
          GatherRows(payload.data() + t * rows * width,
                     global.data() + (t * num_vertices + shard.owned_begin) * width,
                     seg.local_rows, width);
        }
        post(shard_id, outbox, std::move(payload));
      }
    }
  };

  // ---- Pass 2: absorb halo, run the unchanged SeastarExecutor
  // shard-locally, stitch exact outputs, post additive partials. ------------
  const auto pass_run = [&](int shard_id) {
    const GraphShard& shard = sharded.shards[static_cast<size_t>(shard_id)];
    const int64_t owned = shard.owned_count();
    const int64_t local_n = shard.local_count();
    ScopedDeadline deadline_scope(ambient_deadline);
    CheckExecutionDeadline("shard_pass_run");
    ScopedThreadPool pool_scope(SlicePool(shard_id));
    FeatureMap& local_features = local_feature_sets[static_cast<size_t>(shard_id)];

    // Absorb: every owning peer posted one payload per vertex-like input.
    for (const HaloSegment& seg : shard.recv_plans) {
      std::vector<Tensor>& sender = features_out[static_cast<size_t>(seg.peer)];
      const size_t first = static_cast<size_t>(seg.peer_index) * vertex_like_inputs;
      for (size_t k = 0; k < vertex_like_inputs; ++k) {
        MaybeInjectShardFault(FaultSite::kShardRecv, shard_id);
        const Tensor payload = std::move(sender[first + k]);
        if (k < inputs.vertex.size()) {
          const auto& [name, width] = inputs.vertex[k];
          ScatterRows(local_features.vertex[name].data(), payload.data(), seg.local_rows,
                      width);
        } else {
          const auto& [name, width] = inputs.typed[k - inputs.vertex.size()];
          const int64_t rows = payload.dim(1);
          for (int32_t t = 0; t < num_types; ++t) {
            ScatterRows(local_features.typed_vertex[name].data() + t * local_n * width,
                        payload.data() + t * rows * width, seg.local_rows, width);
          }
        }
      }
    }

    if (cancel.stopped()) {
      return;  // Never start an inner run into a cancelled execution.
    }
    MaybeInjectShardFault(FaultSite::kShardWorker, shard_id);
    // No trace inside the workers, whichever thread runs the shard: spans
    // are recorded per pass by the orchestrator, and a trace is single-owner.
    trace::ScopedTraceContext no_trace(nullptr);
    RunResult local = inner_.Run(gir, shard.local, local_features, RunContext{});
    local_feature_sets[static_cast<size_t>(shard_id)] = FeatureMap{};

    // Stitch exact outputs; add this shard's own additive partial.
    for (const OutputInfo& info : outputs) {
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
          // that no other shard writes (peers' partials arrive in pass 3).
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

    // Post halo partials for their owners, one payload per (owner, additive
    // output).
    std::vector<Tensor>& outbox = partials_out[static_cast<size_t>(shard_id)];
    for (const HaloSegment& seg : shard.recv_plans) {
      const int64_t rows = static_cast<int64_t>(seg.local_rows.size());
      for (const OutputInfo& info : additive) {
        const Tensor& local_out = local.outputs.at(info.name);
        if (info.kind == OutputKind::kAdditiveRows) {
          Tensor payload({rows, info.width});
          GatherRows(payload.data(), local_out.data(), seg.local_rows, info.width);
          post(shard_id, outbox, std::move(payload));
        } else {
          Tensor payload({static_cast<int64_t>(num_types), rows, info.width});
          for (int32_t t = 0; t < num_types; ++t) {
            GatherRows(payload.data() + t * rows * info.width,
                       local_out.data() + t * local_n * info.width, seg.local_rows,
                       info.width);
          }
          post(shard_id, outbox, std::move(payload));
        }
      }
    }
  };

  // ---- Pass 3: combine peer partials on masters. --------------------------
  const auto pass_combine = [&](int shard_id) {
    const GraphShard& shard = sharded.shards[static_cast<size_t>(shard_id)];
    ScopedDeadline deadline_scope(ambient_deadline);
    CheckExecutionDeadline("shard_pass_combine");

    // The own partial is already in place; peer partials apply in ascending
    // sender shard id (send_plans are sorted by peer), so the float
    // summation order never depends on thread timing (bit-reproducible runs).
    // The rows each sender packed are the ones our send plan for it lists
    // (aligned segment pair).
    for (const HaloSegment& seg : shard.send_plans) {
      if (cancel.stopped()) {
        return;  // Peers are unwinding; the result is discarded.
      }
      std::vector<Tensor>& sender = partials_out[static_cast<size_t>(seg.peer)];
      const size_t first = static_cast<size_t>(seg.peer_index) * additive.size();
      for (size_t a = 0; a < additive.size(); ++a) {
        const OutputInfo& info = additive[a];
        MaybeInjectShardFault(FaultSite::kShardCombine, shard_id);
        const Tensor payload = std::move(sender[first + a]);
        Tensor& global_out = result.outputs.at(info.name);
        if (info.kind == OutputKind::kAdditiveRows) {
          AddRows(global_out.data() + shard.owned_begin * info.width, payload.data(),
                  seg.local_rows, info.width);
        } else {
          const int64_t rows = payload.dim(1);
          for (int32_t t = 0; t < num_types; ++t) {
            AddRows(global_out.data() + (t * num_vertices + shard.owned_begin) * info.width,
                    payload.data() + t * rows * info.width, seg.local_rows, info.width);
          }
        }
      }
    }
  };

  // The passes are barrier-separated: a pass reads only what earlier passes
  // posted, and every pass-N outbox is complete when pass N joins, so no
  // shard ever waits on a peer inside a pass and the schedule is a free
  // choice. With pool workers available each pass fans its shards out across
  // threads; without them (single-core hosts) the shards of a pass run
  // back-to-back on the calling thread, so exactly one contiguous slice of
  // the feature tensors is hot at a time. That is the schedule that makes
  // sharding pay on one core: a slice fits in LLC where the full tensor does
  // not.
  const bool threaded = ThreadPool::Get().num_threads() > 0 && num_shards > 1;
  const auto run_pass = [&](const std::function<void(int)>& pass) {
    if (cancel.stopped()) {
      return;  // An earlier pass failed.
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
    // Every worker has joined: the unwind is complete and the (persistent)
    // slice pools are reusable by the next Execute. Leave a breadcrumb for
    // post-mortems — recovery above us may swallow the exception entirely.
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
