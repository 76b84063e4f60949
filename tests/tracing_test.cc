// Tests for per-request tracing (src/common/tracing.h): deterministic head
// sampling, span-tree recording and budgets, the two-tier retention policy
// (every anomaly kept, tail reservoir holds exactly the slowest-N), ambient
// propagation, pool recycling, concurrent start/finish, and the Chrome-trace
// export. The 10k soak is the load-bearing test: it proves the guarantee the
// serving stack sells — a shed/expired/degraded request is never lost to
// sampling, and the slowest requests survive even at a 0% head rate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/tracing.h"

namespace seastar {
namespace {

using trace::AmbientSpan;
using trace::FlagNames;
using trace::RequestTrace;
using trace::ScopedTraceContext;
using trace::Span;
using trace::TraceIdHex;
using trace::Tracer;
using trace::TracerConfig;
using trace::TracerStats;

// Mirrors the SplitMix64 step so tests can fabricate well-spread ids.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// ---- FlagNames / TraceIdHex ---------------------------------------------------------------------

TEST(FlagNamesTest, RendersCleanAndCombinations) {
  EXPECT_EQ(FlagNames(0), "clean");
  EXPECT_EQ(FlagNames(trace::kShed), "shed");
  EXPECT_EQ(FlagNames(trace::kExpired | trace::kDegraded), "expired|degraded");
  EXPECT_EQ(FlagNames(trace::kRetried | trace::kBreaker | trace::kFailed),
            "retried|breaker|failed");
}

TEST(TraceIdHexTest, SixteenLowercaseDigits) {
  EXPECT_EQ(TraceIdHex(0), "0000000000000000");
  EXPECT_EQ(TraceIdHex(0xabcull), "0000000000000abc");
  EXPECT_EQ(TraceIdHex(0xDEADBEEFCAFEF00Dull), "deadbeefcafef00d");
}

// ---- Head sampler -------------------------------------------------------------------------------

TEST(HeadSamplerTest, DeterministicInTheTraceId) {
  for (uint64_t i = 0; i < 512; ++i) {
    const uint64_t id = Mix(i);
    EXPECT_EQ(Tracer::HeadSampled(id, 0.01), Tracer::HeadSampled(id, 0.01));
    EXPECT_FALSE(Tracer::HeadSampled(id, 0.0));
    EXPECT_TRUE(Tracer::HeadSampled(id, 1.0));
  }
}

TEST(HeadSamplerTest, AdmitsApproximatelyTheConfiguredFraction) {
  const int kIds = 200000;
  int admitted = 0;
  for (uint64_t i = 0; i < kIds; ++i) {
    admitted += Tracer::HeadSampled(Mix(i), 0.01) ? 1 : 0;
  }
  const double rate = static_cast<double>(admitted) / kIds;
  EXPECT_GT(rate, 0.005) << "sampler admits far too few";
  EXPECT_LT(rate, 0.02) << "sampler admits far too many";
}

TEST(HeadSamplerTest, FixedSeedAdmitsAStableSubset) {
  // Two tracers with the same seed must mint identical ids and make
  // identical sampling decisions — this is what makes traced test runs
  // reproducible.
  TracerConfig config;
  config.head_sample_rate = 0.25;
  config.seed = 42;
  std::vector<std::pair<uint64_t, bool>> first, second;
  for (int round = 0; round < 2; ++round) {
    Tracer tracer(config);
    auto& out = round == 0 ? first : second;
    for (uint64_t i = 0; i < 200; ++i) {
      RequestTrace* trace = tracer.StartTrace(0, i);
      out.emplace_back(trace->trace_id(), trace->sampled());
      tracer.FinishTrace(trace, 1.0, "served");
    }
  }
  EXPECT_EQ(first, second);
  int admitted = 0;
  for (const auto& [id, sampled] : first) {
    EXPECT_EQ(sampled, Tracer::HeadSampled(id, 0.25));
    admitted += sampled ? 1 : 0;
  }
  EXPECT_GT(admitted, 0);
  EXPECT_LT(admitted, 200);

  TracerConfig reseeded = config;
  reseeded.seed = 43;
  Tracer other(reseeded);
  RequestTrace* trace = other.StartTrace(0, 0);
  EXPECT_NE(trace->trace_id(), first[0].first) << "seed must perturb ids";
  other.FinishTrace(trace, 1.0, "served");
}

// ---- Span recording -----------------------------------------------------------------------------

TEST(SpanTreeTest, BeginEndNestingProducesParentIndices) {
  Tracer tracer(TracerConfig{});
  RequestTrace* trace = tracer.StartTrace(3, 17);
  EXPECT_EQ(trace->tenant_index(), 3u);
  EXPECT_EQ(trace->request_id(), 17u);

  const int root = trace->BeginSpan("request");
  const int queue = trace->AddSpan("queue", Tracer::Clock::now(), Tracer::Clock::now());
  const int exec = trace->BeginSpan("execute");
  const int attempt = trace->BeginSpan("attempt");
  trace->SetArg(attempt, trace::Arg::kAttempt, 1);
  trace->EndSpan(attempt);
  trace->SetArg(exec, trace::Arg::kRetries, 0);
  trace->SetArg(exec, trace::Arg::kStatus, 0);
  trace->EndSpan(exec);
  trace->SetDetail(queue, "tenant-a");
  trace->EndSpan(root);

  ASSERT_EQ(trace->num_spans(), 4);
  EXPECT_EQ(trace->span(root).parent, -1);
  EXPECT_EQ(trace->span(queue).parent, root);
  EXPECT_EQ(trace->span(exec).parent, root);
  EXPECT_EQ(trace->span(attempt).parent, exec);
  EXPECT_STREQ(trace->span(queue).detail, "tenant-a");
  EXPECT_TRUE(trace->span(attempt).has(trace::Arg::kAttempt));
  EXPECT_EQ(trace->span(attempt).arg(trace::Arg::kAttempt), 1);
  EXPECT_TRUE(trace->span(exec).has(trace::Arg::kStatus)) << "zero-valued args still record";
  EXPECT_FALSE(trace->span(exec).has(trace::Arg::kAttempt));
  EXPECT_GE(trace->span(root).dur_us, 0);
  // Children close before (or with) their parent.
  EXPECT_LE(trace->span(attempt).start_us + trace->span(attempt).dur_us,
            trace->span(exec).start_us + trace->span(exec).dur_us);
  tracer.FinishTrace(trace, 0.5, "served");
}

TEST(SpanTreeTest, DetailTruncatesToTheFixedBuffer) {
  Tracer tracer(TracerConfig{});
  RequestTrace* trace = tracer.StartTrace(0, 1);
  const int token = trace->BeginSpan("unit");
  trace->SetDetail(token, "a-very-long-fused-unit-label-that-cannot-fit");
  const std::string detail = trace->span(token).detail;
  EXPECT_LT(detail.size(), sizeof(Span{}.detail));
  EXPECT_EQ(detail, std::string("a-very-long-fused-unit-label-that-cannot-fit")
                        .substr(0, detail.size()));
  trace->EndSpan(token);
  tracer.FinishTrace(trace, 0.1, "served");
}

TEST(SpanTreeTest, BudgetDropsBeyondMaxSpansAndCountsThem) {
  Tracer tracer(TracerConfig{});
  RequestTrace* trace = tracer.StartTrace(0, 1);
  const int root = trace->BeginSpan("request");
  // The root holds one slot of the budget: attempts past the first
  // kMaxSpansPerTrace - 1 are dropped.
  for (int i = 0; i < trace::kMaxSpansPerTrace + 6; ++i) {
    const int token = trace->BeginSpan("attempt");
    EXPECT_EQ(token == -1, i >= trace::kMaxSpansPerTrace - 1) << "span " << i;
    trace->SetDetail(token, "ignored");  // Must not crash on a dropped token.
    trace->SetArg(token, trace::Arg::kAttempt, i);
    trace->EndSpan(token);
  }
  EXPECT_EQ(trace->num_spans(), trace::kMaxSpansPerTrace);
  EXPECT_EQ(trace->dropped_spans(), 7);
  trace->EndSpan(root);
  tracer.FinishTrace(trace, 0.1, "served");
  EXPECT_EQ(tracer.stats().spans_dropped, 7);
}

// ---- Retention: the 10k soak --------------------------------------------------------------------

// Deterministic per-request latency in [0.1, 50) ms, well spread.
double SoakLatency(uint64_t i) { return 0.1 + static_cast<double>(Mix(i) % 4990) / 100.0; }

TEST(RetentionSoakTest, EveryAnomalyKeptAndTailHoldsExactlyTheSlowestN) {
  // Head sampling OFF: everything retained must owe its survival to the
  // always-on tail tier. This is the acceptance guarantee — the slowest and
  // the anomalous are inspectable even when sampling keeps nothing.
  TracerConfig config;
  config.head_sample_rate = 0.0;
  config.anomaly_keep = 16384;
  config.seed = 7;
  Tracer tracer(config);

  const uint64_t kRequests = 10000;
  std::set<uint64_t> anomalous_ids;
  std::map<uint64_t, uint32_t> expected_flags;
  std::vector<double> clean_latencies;
  for (uint64_t i = 0; i < kRequests; ++i) {
    RequestTrace* trace = tracer.StartTrace(static_cast<uint32_t>(i % 3), i);
    const int root = trace->BeginSpan("request");
    trace->AddSpan("queue", Tracer::Clock::now(), Tracer::Clock::now());
    trace->EndSpan(root);
    const double total_ms = SoakLatency(i);
    const char* outcome = "served";
    switch (Mix(i ^ 0x5eedull) % 17) {  // ~18% anomalous, mixed classes.
      case 0:
        trace->AddFlag(trace::kShed);
        outcome = "shed";
        break;
      case 1:
        trace->AddFlag(trace::kExpired);
        outcome = "expired";
        break;
      case 2:
        trace->AddFlag(trace::kDegraded);
        outcome = "degraded";
        break;
      default:
        clean_latencies.push_back(total_ms);
        break;
    }
    if (trace->flags() != 0) {
      anomalous_ids.insert(trace->trace_id());
      expected_flags[trace->trace_id()] = trace->flags();
    }
    tracer.FinishTrace(trace, total_ms, outcome);
  }

  const TracerStats stats = tracer.stats();
  EXPECT_EQ(stats.started, static_cast<int64_t>(kRequests));
  EXPECT_EQ(stats.finished, static_cast<int64_t>(kRequests));
  EXPECT_EQ(stats.head_sampled, 0);
  EXPECT_EQ(stats.anomalies_observed, static_cast<int64_t>(anomalous_ids.size()));
  EXPECT_EQ(stats.retained_anomaly, static_cast<int64_t>(anomalous_ids.size()))
      << "the anomaly ring did not overflow, so nothing may be dropped";
  EXPECT_EQ(stats.retained_sampled, 0);
  EXPECT_EQ(stats.retained_tail, trace::kTailKeep);

  std::set<uint64_t> retained_anomalies;
  std::vector<double> tail_latencies;
  tracer.ForEachRetained([&](const RequestTrace& trace) {
    if (trace.flags() != 0) {
      retained_anomalies.insert(trace.trace_id());
      EXPECT_EQ(trace.flags(), expected_flags[trace.trace_id()]);
    } else {
      tail_latencies.push_back(trace.total_ms());
    }
  });
  EXPECT_EQ(retained_anomalies, anomalous_ids)
      << "every shed/expired/degraded request must be retained";

  // The tail heap must hold *exactly* the slowest-N clean requests.
  ASSERT_EQ(tail_latencies.size(), static_cast<size_t>(trace::kTailKeep));
  std::sort(clean_latencies.begin(), clean_latencies.end(), std::greater<double>());
  clean_latencies.resize(static_cast<size_t>(trace::kTailKeep));
  std::sort(clean_latencies.begin(), clean_latencies.end());
  std::sort(tail_latencies.begin(), tail_latencies.end());
  EXPECT_EQ(tail_latencies, clean_latencies);
}

TEST(RetentionSoakTest, HeadSampledCleanTracesLandInTheSampledRing) {
  TracerConfig config;
  config.head_sample_rate = 0.05;
  config.seed = 11;
  Tracer tracer(config);

  std::set<uint64_t> sampled_clean_ids;
  for (uint64_t i = 0; i < 2000; ++i) {
    RequestTrace* trace = tracer.StartTrace(0, i);
    const bool anomalous = (i % 50) == 0;
    if (anomalous) {
      trace->AddFlag(trace::kRetried);
    } else if (trace->sampled()) {
      sampled_clean_ids.insert(trace->trace_id());
    }
    tracer.FinishTrace(trace, SoakLatency(i), anomalous ? "served" : "served");
  }
  ASSERT_GT(sampled_clean_ids.size(), 0u);
  ASSERT_LE(sampled_clean_ids.size(), static_cast<size_t>(trace::kSampledKeep))
      << "test assumes the sampled ring never overflows";

  std::set<uint64_t> retained_sampled;
  tracer.ForEachRetained([&](const RequestTrace& trace) {
    if (trace.sampled() && trace.flags() == 0) {
      retained_sampled.insert(trace.trace_id());
    }
  });
  // Every head-sampled clean trace survives (some extra sampled ids may also
  // sit in the tail heap; the subset relation is the guarantee).
  for (uint64_t id : sampled_clean_ids) {
    EXPECT_TRUE(retained_sampled.count(id)) << "sampled trace lost: " << TraceIdHex(id);
  }
}

// ---- Pool recycling -----------------------------------------------------------------------------

TEST(PoolTest, SteadyStatePerformsNoFreshTraceAllocations) {
  TracerConfig config;
  config.head_sample_rate = 0.0;
  Tracer tracer(config);

  auto run_one = [&](uint64_t i) {
    RequestTrace* trace = tracer.StartTrace(0, i);
    const int root = trace->BeginSpan("request");
    trace->EndSpan(root);
    tracer.FinishTrace(trace, SoakLatency(i), "served");
  };
  // Warm past a full tail heap: from then on every finish recycles a trace.
  const uint64_t warm = 4 * trace::kTailKeep;
  for (uint64_t i = 0; i < warm; ++i) {
    run_one(i);
  }
  const int64_t warm_misses = tracer.stats().pool_misses;
  for (uint64_t i = warm; i < 2000; ++i) {
    run_one(i);
  }
  EXPECT_EQ(tracer.stats().pool_misses, warm_misses)
      << "steady-state tracing must recycle trace objects, not allocate";
}

// ---- Ambient propagation ------------------------------------------------------------------------

TEST(AmbientTest, NoContextMeansInertSpans) {
  ASSERT_EQ(trace::CurrentTrace(), nullptr);
  EXPECT_EQ(trace::CurrentTraceId(), 0u);
  AmbientSpan span("unit");
  EXPECT_FALSE(span.active());
  span.Detail("ignored");
  span.Set(trace::Arg::kAttempt, 1);  // Must be a no-op, not a crash.
}

TEST(AmbientTest, ScopedContextNestsAndRestores) {
  Tracer tracer(TracerConfig{});
  RequestTrace* outer = tracer.StartTrace(0, 1);
  RequestTrace* inner = tracer.StartTrace(0, 2);
  {
    ScopedTraceContext outer_scope(outer);
    EXPECT_EQ(trace::CurrentTrace(), outer);
    EXPECT_EQ(trace::CurrentTraceId(), outer->trace_id());
    {
      ScopedTraceContext inner_scope(inner);
      EXPECT_EQ(trace::CurrentTrace(), inner);
      AmbientSpan span("shard_pass");
      span.Detail("features");
      EXPECT_TRUE(span.active());
    }
    EXPECT_EQ(trace::CurrentTrace(), outer);
    {
      ScopedTraceContext null_scope(nullptr);
      EXPECT_EQ(trace::CurrentTrace(), nullptr);
      AmbientSpan span("unit");
      EXPECT_FALSE(span.active());
    }
    EXPECT_EQ(trace::CurrentTrace(), outer);
  }
  EXPECT_EQ(trace::CurrentTrace(), nullptr);
  EXPECT_EQ(inner->num_spans(), 1);
  EXPECT_STREQ(inner->span(0).name, "shard_pass");
  EXPECT_STREQ(inner->span(0).detail, "features");
  EXPECT_EQ(outer->num_spans(), 0);
  tracer.FinishTrace(outer, 0.1, "served");
  tracer.FinishTrace(inner, 0.1, "served");
}

// ---- Run retention ------------------------------------------------------------------------------

TEST(RunRetentionTest, KeepsEveryRunWholeWithNoSpanBudget) {
  TracerConfig config;
  config.head_sample_rate = 0.0;
  Tracer tracer(config, trace::Retention::kRun);
  // More spans per run than a sampled trace's budget allows.
  constexpr int kEpochs = trace::kMaxSpansPerTrace + 4;
  for (int r = 0; r < 3; ++r) {
    trace::ScopedRun run(&tracer, "run", "bench");
    ASSERT_NE(trace::CurrentTrace(), nullptr);
    for (int i = 0; i < kEpochs; ++i) {
      AmbientSpan span("epoch", "train");
      span.Set(trace::Arg::kEpoch, i);
    }
  }
  EXPECT_EQ(trace::CurrentTrace(), nullptr) << "ScopedRun restores the previous context";

  const TracerStats stats = tracer.stats();
  EXPECT_EQ(stats.retained_run, 3);
  EXPECT_EQ(stats.spans_dropped, 0);
  EXPECT_EQ(stats.retained_tail + stats.retained_sampled + stats.retained_anomaly, 0);
  int runs = 0;
  tracer.ForEachRetained([&runs](const RequestTrace& run) {
    ++runs;
    ASSERT_EQ(run.num_spans(), kEpochs + 1);
    EXPECT_STREQ(run.span(0).name, "run");
    EXPECT_EQ(run.span(0).parent, -1);
    EXPECT_GE(run.span(0).dur_us, 0);
    EXPECT_EQ(run.span(kEpochs).arg(trace::Arg::kEpoch), kEpochs - 1);
    EXPECT_STREQ(run.outcome(), "done");
  });
  EXPECT_EQ(runs, 3);
}

TEST(RunRetentionTest, InternReturnsOneStablePointerPerString) {
  std::string label = "unit7:Mul+AggSum";
  const char* interned = trace::Intern(label);
  label[0] = 'X';  // The caller's buffer may change or die afterwards.
  EXPECT_STREQ(interned, "unit7:Mul+AggSum");
  EXPECT_EQ(trace::Intern("unit7:Mul+AggSum"), interned);
  EXPECT_NE(trace::Intern("unit8:Mul+AggSum"), interned);
}

// ---- Concurrency (exercised under TSan in CI) ---------------------------------------------------

TEST(ConcurrencyTest, ParallelStartFinishKeepsAccountingExact) {
  TracerConfig config;
  config.head_sample_rate = 0.02;
  Tracer tracer(config);

  const int kThreads = 8;
  const uint64_t kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        RequestTrace* trace =
            tracer.StartTrace(static_cast<uint32_t>(t), static_cast<uint64_t>(t) * 1000 + i);
        ScopedTraceContext scope(trace);
        const int root = trace->BeginSpan("request");
        {
          AmbientSpan span("execute");
          span.Set(trace::Arg::kAttempt, 1);
        }
        trace->EndSpan(root);
        if (i % 97 == 0) {
          trace->AddFlag(trace::kRetried);
        }
        tracer.FinishTrace(trace, SoakLatency(i), "served");
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  const TracerStats stats = tracer.stats();
  EXPECT_EQ(stats.started, static_cast<int64_t>(kThreads) * static_cast<int64_t>(kPerThread));
  EXPECT_EQ(stats.finished, stats.started);
  const std::string json = tracer.ChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"traceStats\""), std::string::npos);
}

// ---- Chrome export ------------------------------------------------------------------------------

TEST(ChromeExportTest, EmitsTenantMetadataRootFactsAndStats) {
  TracerConfig config;
  config.head_sample_rate = 0.0;
  Tracer tracer(config);
  tracer.SetTenantName(2, "tenant-b");

  RequestTrace* trace = tracer.StartTrace(2, 99);
  const uint64_t id = trace->trace_id();
  const int root = trace->BeginSpan("request");
  const int exec = trace->BeginSpan("execute");
  trace->EndSpan(exec);
  trace->EndSpan(root);
  trace->AddFlag(trace::kDegraded);
  tracer.FinishTrace(trace, 12.5, "degraded");

  const std::string json = tracer.ChromeTraceJson();
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos) << json;
  EXPECT_NE(json.find("tenant:tenant-b"), std::string::npos);
  EXPECT_NE(json.find(TraceIdHex(id)), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"flags\": \"degraded\""), std::string::npos);
  EXPECT_NE(json.find("\"retained_by\": \"anomaly\""), std::string::npos);
  EXPECT_NE(json.find("\"outcome\": \"degraded\""), std::string::npos);
  EXPECT_NE(json.find("\"anomalies_observed\": 1"), std::string::npos);
}

}  // namespace
}  // namespace seastar
