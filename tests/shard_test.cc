// Tests for the sharded execution runtime: partitioner invariants over
// degenerate graph shapes, the shardability rules, halo-exchange
// determinism, executor-factory spec parsing, and end-to-end training
// parity of the sharded runtime against the full-graph interpreter.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <set>

#include "src/common/deadline.h"
#include "src/common/fault.h"
#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/core/executor_factory.h"
#include "src/core/models/gat.h"
#include "src/core/models/gcn.h"
#include "src/core/train.h"
#include "src/exec/seastar_executor.h"
#include "src/exec/shard_runtime.h"
#include "src/gir/builder.h"
#include "src/graph/generators.h"
#include "src/graph/partition.h"
#include "src/tensor/ops.h"

namespace seastar {
namespace {

Graph RandomGraph(int64_t n, int64_t m, uint64_t seed) {
  Rng rng(seed);
  return ToGraph(ErdosRenyi(n, m, rng));
}

// Structural invariants every partition must satisfy, whatever the graph.
void CheckPartitionInvariants(const Graph& g, const ShardedGraph& sharded) {
  ASSERT_EQ(sharded.cuts.size(), static_cast<size_t>(sharded.num_shards) + 1);
  EXPECT_EQ(sharded.cuts.front(), 0);
  EXPECT_EQ(sharded.cuts.back(), g.num_vertices());
  int64_t owned_total = 0;
  int64_t edge_total = 0;
  for (const GraphShard& shard : sharded.shards) {
    EXPECT_EQ(shard.owned_begin, sharded.cuts[shard.shard_id]);
    EXPECT_EQ(shard.owned_end, sharded.cuts[shard.shard_id + 1]);
    owned_total += shard.owned_count();
    edge_total += shard.local.num_edges();
    EXPECT_EQ(shard.local.num_vertices(), shard.local_count());
    EXPECT_EQ(static_cast<int64_t>(shard.edge_global.size()), shard.local.num_edges());
    // Local edge order preserves global edge order.
    EXPECT_TRUE(std::is_sorted(shard.edge_global.begin(), shard.edge_global.end()));
    // Halo ids are ascending, unique and owned elsewhere.
    for (size_t i = 0; i < shard.halo_globals.size(); ++i) {
      const int32_t v = shard.halo_globals[i];
      if (i > 0) {
        EXPECT_LT(shard.halo_globals[i - 1], v);
      }
      EXPECT_TRUE(v < shard.owned_begin || v >= shard.owned_end);
      EXPECT_NE(sharded.OwnerOf(v), shard.shard_id);
    }
    // No zero-length halo segments, ever (satellite: empty shards, isolated
    // vertices and self-loops must not emit empty exchange plans).
    for (const HaloSegment& seg : shard.send_plans) {
      EXPECT_FALSE(seg.local_rows.empty());
    }
    for (const HaloSegment& seg : shard.recv_plans) {
      EXPECT_FALSE(seg.local_rows.empty());
    }
  }
  EXPECT_EQ(owned_total, g.num_vertices());
  EXPECT_EQ(edge_total, g.num_edges());
  // Exchange plans are pairwise aligned: owner's send segment for a peer
  // matches the peer's recv segment for the owner, row for row, and each
  // segment's peer_index names its partner. Both plan lists ascend by peer.
  int64_t recv_total = 0;
  for (const GraphShard& shard : sharded.shards) {
    recv_total += static_cast<int64_t>(shard.recv_plans.size());
    for (const auto* plans : {&shard.send_plans, &shard.recv_plans}) {
      for (size_t i = 1; i < plans->size(); ++i) {
        EXPECT_LT((*plans)[i - 1].peer, (*plans)[i].peer);
      }
    }
  }
  int64_t send_total = 0;
  for (const GraphShard& owner : sharded.shards) {
    for (size_t si = 0; si < owner.send_plans.size(); ++si) {
      ++send_total;
      const HaloSegment& send = owner.send_plans[si];
      const GraphShard& mirrorer = sharded.shards[static_cast<size_t>(send.peer)];
      ASSERT_GE(send.peer_index, 0);
      ASSERT_LT(static_cast<size_t>(send.peer_index), mirrorer.recv_plans.size());
      const HaloSegment& recv = mirrorer.recv_plans[static_cast<size_t>(send.peer_index)];
      EXPECT_EQ(recv.peer, owner.shard_id);
      EXPECT_EQ(recv.peer_index, static_cast<int>(si));
      ASSERT_EQ(send.local_rows.size(), recv.local_rows.size());
      for (size_t i = 0; i < send.local_rows.size(); ++i) {
        // Both sides list the same global vertex at the same position.
        const int64_t send_global = owner.owned_begin + send.local_rows[i];
        const int32_t halo_index =
            recv.local_rows[i] - static_cast<int32_t>(mirrorer.owned_count());
        ASSERT_GE(halo_index, 0);
        EXPECT_EQ(send_global, mirrorer.halo_globals[static_cast<size_t>(halo_index)]);
      }
    }
  }
  EXPECT_EQ(send_total, recv_total);
}

TEST(PartitionerTest, CoversVerticesEdgesAndAlignsPlans) {
  const Graph g = RandomGraph(200, 1200, 0x5a1);
  for (int k : {1, 2, 3, 4, 7}) {
    ShardedGraph sharded = Partitioner::Partition(g, {k});
    EXPECT_EQ(sharded.num_shards, k);
    CheckPartitionInvariants(g, sharded);
  }
}

TEST(PartitionerTest, EmptyGraph) {
  const Graph g = Graph::FromCoo(0, {}, {});
  ShardedGraph sharded = Partitioner::Partition(g, {3});
  CheckPartitionInvariants(g, sharded);
  EXPECT_EQ(sharded.TotalMirrors(), 0);
}

TEST(PartitionerTest, MoreShardsThanVertices) {
  const Graph g = Graph::FromCoo(3, {0, 1, 2}, {1, 2, 0});
  ShardedGraph sharded = Partitioner::Partition(g, {8});
  CheckPartitionInvariants(g, sharded);
  // Some shards own nothing; they must still be well-formed and plan-free
  // on the send side (they own nothing anyone could mirror).
  int64_t empty = 0;
  for (const GraphShard& shard : sharded.shards) {
    if (shard.owned_count() == 0) {
      ++empty;
      EXPECT_EQ(shard.local.num_edges(), 0);
      EXPECT_TRUE(shard.send_plans.empty());
      EXPECT_TRUE(shard.recv_plans.empty());
    }
  }
  EXPECT_GE(empty, 5);
}

TEST(PartitionerTest, IsolatedVerticesAreOwnedButNeverMirrored) {
  // Vertices 4..9 have no edges at all.
  const Graph g = Graph::FromCoo(10, {0, 1, 2}, {1, 2, 3});
  ShardedGraph sharded = Partitioner::Partition(g, {4});
  CheckPartitionInvariants(g, sharded);
  for (const GraphShard& shard : sharded.shards) {
    for (int32_t v : shard.halo_globals) {
      EXPECT_LT(v, 4) << "isolated vertex mirrored";
    }
  }
}

TEST(PartitionerTest, SelfLoopsStayShardLocal) {
  std::vector<int32_t> src, dst;
  for (int32_t v = 0; v < 12; ++v) {
    src.push_back(v);
    dst.push_back(v);
  }
  const Graph g = Graph::FromCoo(12, std::move(src), std::move(dst));
  ShardedGraph sharded = Partitioner::Partition(g, {4});
  CheckPartitionInvariants(g, sharded);
  EXPECT_EQ(sharded.TotalMirrors(), 0);
  for (const GraphShard& shard : sharded.shards) {
    EXPECT_TRUE(shard.halo_globals.empty());
    EXPECT_TRUE(shard.send_plans.empty());
    EXPECT_TRUE(shard.recv_plans.empty());
  }
}

TEST(PartitionerTest, DeterministicAcrossCalls) {
  const Graph g = RandomGraph(150, 900, 0x5a2);
  ShardedGraph a = Partitioner::Partition(g, {4});
  ShardedGraph b = Partitioner::Partition(g, {4});
  ASSERT_EQ(a.cuts, b.cuts);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(a.shards[s].halo_globals, b.shards[s].halo_globals);
    EXPECT_EQ(a.shards[s].edge_global, b.shards[s].edge_global);
  }
}

// ---- Shardability rules --------------------------------------------------

TEST(ShardableTest, AcceptsForwardDstAggregation) {
  GirBuilder b;
  b.MarkOutput(AggSum(b.Src("h", 4)), "out");
  EXPECT_TRUE(ShardRuntime::CheckShardable(b.TakeGraph()).ok());
}

TEST(ShardableTest, AcceptsAdditiveOutputOnlySourceAggregation) {
  GirBuilder b;
  b.MarkOutput(AggSum(b.Dst("g", 4), AggTo::kSrc), "grad_h");
  EXPECT_TRUE(ShardRuntime::CheckShardable(b.TakeGraph()).ok());
}

TEST(ShardableTest, RejectsOutDegree) {
  GirBuilder b;
  Node degree;
  degree.kind = OpKind::kDegree;
  degree.type = GraphType::kSrc;
  degree.width = 1;
  Value deg = b.RawNode(degree);
  b.MarkOutput(AggSum(b.Src("h", 1) * deg), "out");
  const Status status = ShardRuntime::CheckShardable(b.TakeGraph());
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("out-degree"), std::string::npos);
}

TEST(ShardableTest, RejectsNonAdditiveSourceAggregation) {
  GirBuilder b;
  b.MarkOutput(AggMax(b.Dst("g", 2), AggTo::kSrc), "grad_h");
  const Status status = ShardRuntime::CheckShardable(b.TakeGraph());
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("non-additively"), std::string::npos);
}

TEST(ShardableTest, RejectsInternallyConsumedSourceAggregation) {
  GirBuilder b;
  Value partial = AggSum(b.Dst("g", 2), AggTo::kSrc);
  b.MarkOutput(Relu(partial), "out");
  const Status status = ShardRuntime::CheckShardable(b.TakeGraph());
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("partial"), std::string::npos);
}

// ---- Sharded execution vs the full-graph interpreter ---------------------

FeatureMap RandomVertexFeatures(const Graph& g, uint64_t seed) {
  Rng rng(seed);
  FeatureMap features;
  features.vertex["h"] = ops::RandomNormal({g.num_vertices(), 4}, 0.0f, 1.0f, rng);
  features.vertex["g"] = ops::RandomNormal({g.num_vertices(), 4}, 0.0f, 1.0f, rng);
  return features;
}

TEST(ShardRuntimeTest, ForwardAggregationMatchesFullGraph) {
  const Graph g = RandomGraph(120, 700, 0x77);
  GirBuilder b;
  b.MarkOutput(AggSum(b.Src("h", 4) * b.Dst("g", 4)), "out");
  const GirGraph gir = b.TakeGraph();
  const FeatureMap features = RandomVertexFeatures(g, 0x78);

  // D-typed outputs are exact shard-locally: each owned destination sees
  // all of its in-edges in global order, so the sums are bit-identical.
  SeastarExecutor full;
  const Tensor expected = full.Run(gir, g, features).outputs.at("out");
  for (int k : {1, 2, 3, 4}) {
    ShardRuntime runtime({.num_shards = k});
    GraphView view = runtime.PrepareView(g);
    Tensor got = runtime.Execute(gir, view, features).outputs.at("out");
    EXPECT_TRUE(expected.AllClose(got, 0.0f)) << "shards=" << k;
  }
}

TEST(ShardRuntimeTest, SourceAggregationCombinesPartials) {
  const Graph g = RandomGraph(90, 600, 0x79);
  GirBuilder b;
  b.MarkOutput(AggSum(b.Dst("g", 4) * b.Src("h", 4), AggTo::kSrc), "grad_h");
  const GirGraph gir = b.TakeGraph();
  const FeatureMap features = RandomVertexFeatures(g, 0x7a);

  SeastarExecutor full;
  const Tensor expected = full.Run(gir, g, features).outputs.at("grad_h");
  for (int k : {2, 3, 4}) {
    ShardRuntime runtime({.num_shards = k});
    GraphView view = runtime.PrepareView(g);
    Tensor got = runtime.Execute(gir, view, features).outputs.at("grad_h");
    EXPECT_TRUE(expected.AllClose(got, 1e-5f)) << "shards=" << k;
  }
}

TEST(ShardRuntimeTest, EdgeOutputsScatterThroughGlobalEdgeIds) {
  const Graph g = RandomGraph(80, 500, 0x7b);
  GirBuilder b;
  b.MarkOutput(b.Src("h", 4) * b.Dst("g", 4), "e_out");
  const GirGraph gir = b.TakeGraph();
  const FeatureMap features = RandomVertexFeatures(g, 0x7c);

  SeastarExecutor full;
  const Tensor expected = full.Run(gir, g, features).outputs.at("e_out");
  for (int k : {1, 2, 3, 4}) {
    ShardRuntime runtime({.num_shards = k});
    GraphView view = runtime.PrepareView(g);
    Tensor got = runtime.Execute(gir, view, features).outputs.at("e_out");
    EXPECT_TRUE(expected.AllClose(got, 0.0f)) << "shards=" << k;
  }
}

TEST(ShardRuntimeTest, HaloExchangeOrderIsDeterministic) {
  // The S-typed combine applies peer partials in ascending shard id order;
  // two runs must therefore be bit-identical even though the exchange
  // happens on concurrent shard workers. (Under TSan this test doubles as
  // the halo-exchange race check.)
  const Graph g = RandomGraph(100, 800, 0x7d);
  GirBuilder b;
  b.MarkOutput(AggSum(b.Dst("g", 4) * b.Src("h", 4), AggTo::kSrc), "grad_h");
  const GirGraph gir = b.TakeGraph();
  const FeatureMap features = RandomVertexFeatures(g, 0x7e);

  ShardRuntime runtime({.num_shards = 4});
  GraphView view = runtime.PrepareView(g);
  const Tensor first = runtime.Execute(gir, view, features).outputs.at("grad_h");
  for (int run = 0; run < 3; ++run) {
    Tensor again = runtime.Execute(gir, view, features).outputs.at("grad_h");
    EXPECT_TRUE(first.AllClose(again, 0.0f)) << "run " << run << " not bit-identical";
  }
}

TEST(ShardRuntimeTest, UnshardableProgramFallsBackExactly) {
  const Graph g = RandomGraph(60, 300, 0x7f);
  GirBuilder b;
  b.MarkOutput(AggMax(b.Dst("g", 4), AggTo::kSrc), "grad_h");
  const GirGraph gir = b.TakeGraph();
  const FeatureMap features = RandomVertexFeatures(g, 0x80);

  metrics::Counter* fallbacks =
      metrics::MetricsRegistry::Get().GetCounter("seastar_shard_fallbacks_total");
  const int64_t before = fallbacks->value();

  SeastarExecutor full;
  const Tensor expected = full.Run(gir, g, features).outputs.at("grad_h");
  ShardRuntime runtime({.num_shards = 4});
  GraphView view = runtime.PrepareView(g);
  Tensor got = runtime.Execute(gir, view, features).outputs.at("grad_h");
  EXPECT_TRUE(expected.AllClose(got, 0.0f));
  EXPECT_EQ(fallbacks->value(), before + 1);
}

// Execute reads the partition from the view and sizes its per-shard state
// by the runtime's shard count, so a view it did not prepare is a caller bug.
TEST(ShardRuntimeDeathTest, RejectsViewWithoutPartition) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Graph g = RandomGraph(70, 400, 0x81);
  GirBuilder b;
  b.MarkOutput(AggSum(b.Src("h", 4)), "out");
  const GirGraph gir = b.TakeGraph();
  const FeatureMap features = RandomVertexFeatures(g, 0x82);

  ShardRuntime runtime({.num_shards = 2});
  EXPECT_DEATH(runtime.Execute(gir, GraphView(g), features), "view carries no partition");
}

TEST(ShardRuntimeDeathTest, RejectsViewPartitionedForAnotherShardCount) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Graph g = RandomGraph(70, 400, 0x83);
  GirBuilder b;
  b.MarkOutput(AggSum(b.Src("h", 4)), "out");
  const GirGraph gir = b.TakeGraph();
  const FeatureMap features = RandomVertexFeatures(g, 0x84);

  const GraphView four = ShardRuntime({.num_shards = 4}).PrepareView(g);
  ShardRuntime runtime({.num_shards = 2});
  EXPECT_DEATH(runtime.Execute(gir, four, features),
               "view partitioned into 4 shards, runtime runs 2");
}

// ---- Fault injection, cancellation and recovery --------------------------

// A program with one D-typed and one S-typed additive output, so at shard
// counts > 1 every pass carries halo payloads and every shard fault site
// (send/recv/worker/combine) has hits to trip on.
GirGraph FaultProgram() {
  GirBuilder b;
  b.MarkOutput(AggSum(b.Src("h", 4) * b.Dst("g", 4)), "out");
  b.MarkOutput(AggSum(b.Dst("g", 4) * b.Src("h", 4), AggTo::kSrc), "grad_h");
  return b.TakeGraph();
}

void ExpectBitIdentical(const RunResult& expected, const RunResult& got,
                        const std::string& label) {
  ASSERT_EQ(expected.outputs.size(), got.outputs.size()) << label;
  for (const auto& [name, tensor] : expected.outputs) {
    EXPECT_TRUE(tensor.AllClose(got.outputs.at(name), 0.0f))
        << label << ": output '" << name << "' not bit-identical";
  }
}

struct RecoveryCounterHandles {
  metrics::Counter* retries;
  metrics::Counter* recovery_fallbacks;
};

RecoveryCounterHandles RecoveryCounters() {
  metrics::MetricsRegistry& registry = metrics::MetricsRegistry::Get();
  return {registry.GetCounter("seastar_shard_retries_total"),
          registry.GetCounter("seastar_shard_recovery_fallbacks_total")};
}

constexpr FaultSite kShardSites[] = {FaultSite::kShardSend, FaultSite::kShardRecv,
                                     FaultSite::kShardCombine, FaultSite::kShardWorker};

TEST(ShardFaultTest, EverySiteCancelsCleanlyAndRuntimeIsReusable) {
  // Trip each shard fault site in turn against the bare runtime (no recovery
  // ladder): the first failing shard must stop its peers and the Execute
  // call unwind promptly — the passes that remain are skipped, and no shard
  // reads a mailbox the dead shard never filled — and the runtime (with its
  // persistent slice pools) must produce bit-identical results on the very
  // next call. Under TSan this test is the cancellation-path race check the
  // CI job asserts on.
  const Graph g = RandomGraph(120, 800, 0x90);
  const GirGraph gir = FaultProgram();
  const FeatureMap features = RandomVertexFeatures(g, 0x91);

  ShardRuntime runtime({.num_shards = 4});
  GraphView view = runtime.PrepareView(g);
  const RunResult reference = runtime.Execute(gir, view, features);

  for (const FaultSite site : kShardSites) {
    ScopedFaultClear clear;
    FaultInjector::Get().Arm(site, /*after_n=*/0, /*count=*/1);
    const auto start = std::chrono::steady_clock::now();
    EXPECT_THROW(runtime.Execute(gir, view, features), ShardFault) << FaultSiteName(site);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    // Bounded unwind: generous wall bound (TSan runs are slow) — a worker
    // that kept running after the stop would trip this.
    EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(), 30)
        << FaultSiteName(site);
    EXPECT_GE(FaultInjector::Get().injected(site), 1) << FaultSiteName(site);
    FaultInjector::Get().Disarm(site);
    ExpectBitIdentical(reference, runtime.Execute(gir, view, features),
                       std::string("rerun after ") + FaultSiteName(site));
  }
}

TEST(ShardRecoveryTest, TransientFaultRetriesOnceBitIdentical) {
  // Through the session (the recovery ladder): a count=1 fault is consumed
  // by the failed attempt, so the single sharded retry reruns clean and the
  // caller sees no error and a result bit-identical to an uninjected run.
  const Graph g = RandomGraph(110, 700, 0x92);
  const GirGraph gir = FaultProgram();
  const FeatureMap features = RandomVertexFeatures(g, 0x93);

  auto executor = std::make_shared<ShardRuntime>(ShardRuntimeOptions{.num_shards = 4});
  ExecutionSession session = MakeSession(executor, g);
  const RunResult reference = session.Execute(gir, features);
  const RecoveryCounterHandles counters = RecoveryCounters();

  for (const FaultSite site : kShardSites) {
    ScopedFaultClear clear;
    const int64_t retries_before = counters.retries->value();
    const int64_t fallbacks_before = counters.recovery_fallbacks->value();
    FaultInjector::Get().Arm(site, /*after_n=*/0, /*count=*/1);
    RunResult recovered;
    ASSERT_NO_THROW(recovered = session.Execute(gir, features)) << FaultSiteName(site);
    EXPECT_EQ(counters.retries->value(), retries_before + 1) << FaultSiteName(site);
    EXPECT_EQ(counters.recovery_fallbacks->value(), fallbacks_before) << FaultSiteName(site);
    ExpectBitIdentical(reference, recovered,
                       std::string("recovered from ") + FaultSiteName(site));
  }
}

TEST(ShardRecoveryTest, WorkerFaultRecoversAtEveryShardCount) {
  const Graph g = RandomGraph(100, 600, 0x94);
  const GirGraph gir = FaultProgram();
  const FeatureMap features = RandomVertexFeatures(g, 0x95);

  for (const int shards : {1, 2, 4}) {
    auto executor = std::make_shared<ShardRuntime>(ShardRuntimeOptions{.num_shards = shards});
    ExecutionSession session = MakeSession(executor, g);
    const RunResult reference = session.Execute(gir, features);

    ScopedFaultClear clear;
    FaultInjector::Get().Arm(FaultSite::kShardWorker, /*after_n=*/0, /*count=*/1);
    RunResult recovered;
    ASSERT_NO_THROW(recovered = session.Execute(gir, features)) << "shards=" << shards;
    ExpectBitIdentical(reference, recovered,
                       "shards=" + std::to_string(shards) + " post-recovery");
  }
}

TEST(ShardRecoveryTest, PersistentFaultFallsBackToWholeGraphExactly) {
  // A fault that outlives the retry demotes the session to the whole-graph
  // interpreter — the same executor the CheckShardable fallback uses — so
  // the result must equal a plain full-graph run bit for bit.
  const Graph g = RandomGraph(90, 500, 0x96);
  const GirGraph gir = FaultProgram();
  const FeatureMap features = RandomVertexFeatures(g, 0x97);

  SeastarExecutor full;
  const RunResult expected = full.Run(gir, g, features);

  auto executor = std::make_shared<ShardRuntime>(ShardRuntimeOptions{.num_shards = 2});
  ExecutionSession session = MakeSession(executor, g);
  const RecoveryCounterHandles counters = RecoveryCounters();
  const int64_t retries_before = counters.retries->value();
  const int64_t fallbacks_before = counters.recovery_fallbacks->value();

  ScopedFaultClear clear;
  FaultInjector::Get().Arm(FaultSite::kShardWorker, /*after_n=*/0, /*count=*/1 << 20);
  RunResult recovered;
  ASSERT_NO_THROW(recovered = session.Execute(gir, features));
  EXPECT_EQ(counters.retries->value(), retries_before + 1);
  EXPECT_EQ(counters.recovery_fallbacks->value(), fallbacks_before + 1);
  ExpectBitIdentical(expected, recovered, "whole-graph fallback");

  // The fault is still armed, but the session keeps absorbing it (at most
  // one fallback run per Execute) — callers above never see the failure.
  ASSERT_NO_THROW(recovered = session.Execute(gir, features));
  ExpectBitIdentical(expected, recovered, "second fallback run");
}

TEST(ShardDeadlineTest, ExpiryMidExecutionAbortsWithoutRetryAndSessionStaysUsable) {
  // Deadline expiry is not a shard failure: it must surface as
  // DeadlineExceeded (the Server counts those expired, off the circuit
  // breaker), must not consume a retry or a fallback, and must leave the
  // session fully reusable. The simt_worker stalls make the interpreter run
  // of pass 2 slow enough that the clock deterministically runs out
  // mid-execution while pass 1's memcpys finish well inside the budget.
  const Graph g = RandomGraph(130, 900, 0x98);
  const GirGraph gir = FaultProgram();
  const FeatureMap features = RandomVertexFeatures(g, 0x99);

  auto executor = std::make_shared<ShardRuntime>(ShardRuntimeOptions{.num_shards = 2});
  ExecutionSession session = MakeSession(executor, g);
  const RunResult reference = session.Execute(gir, features);
  const RecoveryCounterHandles counters = RecoveryCounters();
  const int64_t retries_before = counters.retries->value();
  const int64_t fallbacks_before = counters.recovery_fallbacks->value();

  {
    ScopedFaultClear clear;
    // Every SIMT dispatch grant stalls 2ms >= the whole budget, so the first
    // unit boundary after any pass-2 kernel launch observes an expired
    // deadline (or, on a very slow host, a pass-entry check does — either
    // way the abort is kDeadlineExceeded, not a shard fault).
    FaultInjector::Get().ArmProbabilistic(FaultSite::kSimtWorker, 1.0);
    const Deadline deadline = Deadline::AfterMillis(2);
    ScopedDeadline scope(&deadline);
    EXPECT_THROW(session.Execute(gir, features), DeadlineExceeded);
  }

  EXPECT_EQ(counters.retries->value(), retries_before);
  EXPECT_EQ(counters.recovery_fallbacks->value(), fallbacks_before);
  ExpectBitIdentical(reference, session.Execute(gir, features), "post-deadline rerun");
}

// ---- Executor factory ----------------------------------------------------

TEST(ExecutorFactoryTest, ParsesSpecs) {
  EXPECT_EQ(ParseExecutorSpec("seastar")->kind, "seastar");
  EXPECT_EQ(ParseExecutorSpec("seastar-nofuse")->kind, "seastar-nofuse");
  EXPECT_EQ(ParseExecutorSpec("nofuse")->kind, "seastar-nofuse");
  EXPECT_EQ(ParseExecutorSpec("dgl")->kind, "dgl");
  EXPECT_EQ(ParseExecutorSpec("pyg")->kind, "pyg");
  StatusOr<ExecutorSpec> sharded = ParseExecutorSpec("sharded");
  ASSERT_TRUE(sharded.has_value());
  EXPECT_EQ(sharded->kind, "sharded");
  EXPECT_EQ(sharded->num_shards, 2);
  EXPECT_EQ(ParseExecutorSpec("sharded:4")->num_shards, 4);
  EXPECT_EQ(ParseExecutorSpec("sharded:1")->num_shards, 1);

  EXPECT_FALSE(ParseExecutorSpec("").has_value());
  EXPECT_FALSE(ParseExecutorSpec("tensorflow").has_value());
  EXPECT_FALSE(ParseExecutorSpec("sharded:0").has_value());
  EXPECT_FALSE(ParseExecutorSpec("sharded:-2").has_value());
  EXPECT_FALSE(ParseExecutorSpec("sharded:heaps").has_value());
  EXPECT_FALSE(ParseExecutorSpec("sharded:2000").has_value());
  EXPECT_FALSE(ParseExecutorSpec("seastar:2").has_value());
}

TEST(ExecutorFactoryTest, CreatesNamedExecutors) {
  EXPECT_STREQ((*ExecutorFactory::Create("seastar"))->name(), "seastar");
  EXPECT_STREQ((*ExecutorFactory::Create("seastar-nofuse"))->name(), "seastar-nofuse");
  EXPECT_STREQ((*ExecutorFactory::Create("dgl"))->name(), "dgl");
  EXPECT_STREQ((*ExecutorFactory::Create("pyg"))->name(), "pyg");

  StatusOr<std::unique_ptr<Executor>> sharded = ExecutorFactory::Create("sharded:3");
  ASSERT_TRUE(sharded.has_value());
  EXPECT_STREQ((*sharded)->name(), "sharded");
  const auto* runtime = dynamic_cast<const ShardRuntime*>(sharded->get());
  ASSERT_NE(runtime, nullptr);
  EXPECT_EQ(runtime->options().num_shards, 3);

  EXPECT_FALSE(ExecutorFactory::Create("cuda").has_value());
}

// ---- End-to-end training parity (the ISSUE acceptance bar) ---------------

Dataset SmallCora(double scale = 0.08) {
  DatasetOptions options;
  options.scale = scale;
  options.max_feature_dim = 32;
  return MakeDataset(*FindDataset("cora"), options);
}

float TrainGcnLoss(const Dataset& data, const char* spec) {
  GcnConfig config;
  Gcn model(data, config, std::move(*ExecutorFactory::Create(spec)));
  TrainConfig train;
  train.epochs = 3;
  train.warmup_epochs = 0;
  return TrainNodeClassification(model, data, train).final_loss;
}

TEST(ShardParityTest, GcnTrainingLossMatchesUnsharded) {
  Dataset data = SmallCora();
  const float reference = TrainGcnLoss(data, "seastar");
  for (const char* spec : {"sharded:1", "sharded:2", "sharded:4"}) {
    EXPECT_NEAR(TrainGcnLoss(data, spec), reference, 1e-5) << spec;
  }
}

float TrainGatLoss(const Dataset& data, const char* spec) {
  GatConfig config;
  config.num_heads = 2;
  config.hidden_dim = 4;
  Gat model(data, config, std::move(*ExecutorFactory::Create(spec)));
  TrainConfig train;
  train.epochs = 2;
  train.warmup_epochs = 0;
  return TrainNodeClassification(model, data, train).final_loss;
}

TEST(ShardParityTest, GatTrainingLossMatchesUnsharded) {
  Dataset data = SmallCora(0.06);
  const float reference = TrainGatLoss(data, "seastar");
  for (const char* spec : {"sharded:1", "sharded:2", "sharded:4"}) {
    EXPECT_NEAR(TrainGatLoss(data, spec), reference, 1e-5) << spec;
  }
}

}  // namespace
}  // namespace seastar
