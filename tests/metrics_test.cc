// Tests for the always-on metrics registry (src/common/metrics.h) and the
// crash-grade flight recorder (src/common/flight_recorder.h): histogram
// bucket math, multi-threaded accumulation, the Prometheus/JSON exporters,
// the pull-callback path, ring wraparound, and the zero-lookup discipline
// the instrumented hot paths promise.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "src/common/flight_recorder.h"
#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/core/executor_factory.h"
#include "src/core/models/gcn.h"
#include "src/core/nn.h"
#include "src/exec/plan_cache.h"
#include "src/graph/datasets.h"
#include "src/parallel/simt.h"
#include "src/tensor/allocator.h"
#include "src/tensor/autograd.h"

namespace seastar {
namespace {

using metrics::CallbackKind;
using metrics::Counter;
using metrics::Gauge;
using metrics::Histogram;
using metrics::HistogramSnapshot;
using metrics::MetricsRegistry;

// ---- Histogram bucket math ----------------------------------------------------------------------

TEST(HistogramBucketTest, ValueNeverExceedsItsBucketUpperBound) {
  for (double v = 0.001; v < 1e7; v *= 1.37) {
    const int bucket = Histogram::BucketIndex(v);
    EXPECT_LE(v, Histogram::BucketUpperBound(bucket)) << "value " << v;
  }
}

TEST(HistogramBucketTest, RelativeErrorBoundedByOneSubBucket) {
  // The upper bound a quantile reports overshoots the true value by at most
  // one sub-bucket width: a factor of (1 + 1/kSubBuckets).
  const double max_ratio = 1.0 + 1.0 / Histogram::kSubBuckets;
  for (double v = 0.002; v < 1e7; v *= 1.618) {
    const double bound = Histogram::BucketUpperBound(Histogram::BucketIndex(v));
    EXPECT_LE(bound / v, max_ratio + 1e-12) << "value " << v;
  }
}

TEST(HistogramBucketTest, BucketIndexIsMonotone) {
  int last = -1;
  for (double v = 0.0005; v < 1e8; v *= 1.05) {
    const int bucket = Histogram::BucketIndex(v);
    EXPECT_GE(bucket, last) << "value " << v;
    last = bucket;
  }
}

TEST(HistogramBucketTest, UpperBoundsStrictlyIncreaseAcrossLogBuckets) {
  for (int b = 1; b + 1 < Histogram::kNumBuckets - 1; ++b) {
    EXPECT_LT(Histogram::BucketUpperBound(b), Histogram::BucketUpperBound(b + 1)) << b;
  }
}

TEST(HistogramBucketTest, OutOfRangeAndPathologicalValuesClampToEdgeBuckets) {
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0);
  EXPECT_EQ(Histogram::BucketIndex(-5.0), 0);
  EXPECT_EQ(Histogram::BucketIndex(std::numeric_limits<double>::quiet_NaN()), 0);
  EXPECT_EQ(Histogram::BucketIndex(1e-12), 0);
  EXPECT_EQ(Histogram::BucketIndex(1e30), Histogram::kNumBuckets - 1);
  EXPECT_EQ(Histogram::BucketIndex(std::numeric_limits<double>::infinity()),
            Histogram::kNumBuckets - 1);
  EXPECT_TRUE(std::isinf(Histogram::BucketUpperBound(Histogram::kNumBuckets - 1)));
}

TEST(HistogramBucketTest, OctaveBoundaryLandsInTheOctavesFirstSubBucket) {
  // 1.0 = 0.5 * 2^1: first sub-bucket of the exp=1 octave.
  const int bucket = Histogram::BucketIndex(1.0);
  EXPECT_EQ(bucket, 1 + (1 - Histogram::kMinExp) * Histogram::kSubBuckets);
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperBound(bucket),
                   1.0 + 1.0 / Histogram::kSubBuckets);
}

// ---- Histogram recording ------------------------------------------------------------------------

TEST(HistogramTest, QuantilesTrackAUniformSweepWithinBucketError) {
  Histogram hist("test_sweep_ms");
  for (int i = 1; i <= 1000; ++i) {
    hist.Record(static_cast<double>(i));
  }
  const HistogramSnapshot snapshot = hist.Snapshot();
  EXPECT_EQ(snapshot.count, 1000);
  EXPECT_DOUBLE_EQ(snapshot.sum, 500500.0);
  EXPECT_DOUBLE_EQ(snapshot.max, 1000.0);
  // Quantiles are reported as bucket upper bounds: never below the true
  // quantile, at most one sub-bucket (6.25%) above it.
  EXPECT_GE(snapshot.p50, 500.0);
  EXPECT_LE(snapshot.p50, 500.0 * 1.07);
  EXPECT_GE(snapshot.p95, 950.0);
  EXPECT_LE(snapshot.p95, 950.0 * 1.07);
  EXPECT_GE(snapshot.p99, 990.0);
  EXPECT_LE(snapshot.p99, 1000.0);
}

TEST(HistogramTest, EmptySnapshotIsAllZeros) {
  Histogram hist("test_empty_ms");
  const HistogramSnapshot snapshot = hist.Snapshot();
  EXPECT_EQ(snapshot.count, 0);
  EXPECT_EQ(snapshot.sum, 0.0);
  EXPECT_EQ(snapshot.p99, 0.0);
  EXPECT_EQ(snapshot.max, 0.0);
}

TEST(HistogramTest, SingleObservationQuantilesClampToExactMax) {
  Histogram hist("test_single_ms");
  hist.Record(3.0);
  const HistogramSnapshot snapshot = hist.Snapshot();
  // The bucket bound would overshoot 3.0; the snapshot clamps to the max.
  EXPECT_DOUBLE_EQ(snapshot.p50, 3.0);
  EXPECT_DOUBLE_EQ(snapshot.p99, 3.0);
}

TEST(HistogramTest, ConcurrentRecordsLoseNothing) {
  Histogram hist("test_mt_ms");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.Record(1.0);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const HistogramSnapshot snapshot = hist.Snapshot();
  EXPECT_EQ(snapshot.count, int64_t{kThreads} * kPerThread);
  EXPECT_DOUBLE_EQ(snapshot.sum, static_cast<double>(kThreads) * kPerThread);
}

// ---- Counters / gauges --------------------------------------------------------------------------

TEST(CounterTest, ConcurrentIncrementsSumExactly) {
  Counter counter("test_mt_total");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.Add(1);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(counter.value(), int64_t{kThreads} * kPerThread);
}

TEST(GaugeTest, SetAndAddCompose) {
  Gauge gauge("test_gauge");
  gauge.Set(2.0);
  gauge.Add(0.5);
  gauge.Add(-1.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 1.5);
}

// ---- Registry -----------------------------------------------------------------------------------

TEST(MetricsRegistryTest, FindOrCreateReturnsStableHandlesAndCountsLookups) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.lookups(), 0);
  Counter* a = registry.GetCounter("test_requests_total");
  Counter* b = registry.GetCounter("test_requests_total");
  EXPECT_EQ(a, b);
  EXPECT_EQ(registry.lookups(), 2);
  a->Add(5);
  EXPECT_EQ(b->value(), 5);
}

TEST(MetricsRegistryTest, TextExpositionGolden) {
  MetricsRegistry registry;
  registry.GetCounter("test_requests_total")->Add(3);
  registry.GetGauge("test_depth")->Set(2.5);
  Histogram* hist = registry.GetHistogram("test_latency_ms");
  hist->Record(1.0);
  hist->Record(1.0);
  registry.RegisterCallback("test_pulled_total", CallbackKind::kCounter,
                            [] { return 7.0; });
  EXPECT_EQ(registry.TextExposition(),
            "# TYPE test_requests_total counter\n"
            "test_requests_total 3\n"
            "# TYPE test_pulled_total counter\n"
            "test_pulled_total 7\n"
            "# TYPE test_depth gauge\n"
            "test_depth 2.5\n"
            "# TYPE test_latency_ms summary\n"
            "test_latency_ms{quantile=\"0.5\"} 1\n"
            "test_latency_ms{quantile=\"0.95\"} 1\n"
            "test_latency_ms{quantile=\"0.99\"} 1\n"
            "test_latency_ms_count 2\n"
            "test_latency_ms_sum 2\n"
            "test_latency_ms_max 1\n");
}

TEST(MetricsRegistryTest, LabelledSeriesShareOneTypeLineAndSuffixBeforeBraces) {
  MetricsRegistry registry;
  registry.GetCounter("test_x_total{k=\"a\"}")->Add(1);
  registry.GetCounter("test_x_total{k=\"b\"}")->Add(2);
  registry.GetHistogram("test_h_ms{k=\"a\"}")->Record(1.0);
  const std::string text = registry.TextExposition();
  // One # TYPE line covers both labelled counter series.
  EXPECT_EQ(text.find("# TYPE test_x_total counter"),
            text.rfind("# TYPE test_x_total counter"));
  EXPECT_NE(text.find("test_x_total{k=\"a\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("test_x_total{k=\"b\"} 2\n"), std::string::npos);
  // _count/_sum insert before the label braces; quantile joins the label set.
  EXPECT_NE(text.find("test_h_ms_count{k=\"a\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("test_h_ms{k=\"a\",quantile=\"0.5\"}"), std::string::npos);
}

TEST(MetricsRegistryTest, CallbackReRegistrationReplaces) {
  MetricsRegistry registry;
  registry.RegisterCallback("test_cb", CallbackKind::kGauge, [] { return 1.0; });
  registry.RegisterCallback("test_cb", CallbackKind::kGauge, [] { return 9.0; });
  EXPECT_NE(registry.TextExposition().find("test_cb 9\n"), std::string::npos);
}

TEST(MetricsRegistryTest, JsonSnapshotCarriesAllSections) {
  MetricsRegistry registry;
  registry.GetCounter("test_requests_total")->Add(3);
  registry.GetGauge("test_depth")->Set(2.5);
  registry.GetHistogram("test_latency_ms")->Record(4.0);
  registry.RegisterCallback("test_pulled_entries", CallbackKind::kGauge,
                            [] { return 11.0; });
  const std::string json = registry.JsonSnapshot();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"test_requests_total\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"test_pulled_entries\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
}

// ---- Label escaping -----------------------------------------------------------------------------

TEST(EscapeLabelValueTest, PassesCleanValuesThrough) {
  EXPECT_EQ(metrics::EscapeLabelValue("tenant-a"), "tenant-a");
  EXPECT_EQ(metrics::EscapeLabelValue(""), "");
}

TEST(EscapeLabelValueTest, EscapesBackslashQuoteAndNewline) {
  EXPECT_EQ(metrics::EscapeLabelValue("a\"b"), "a\\\"b");
  EXPECT_EQ(metrics::EscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(metrics::EscapeLabelValue("a\nb"), "a\\nb");
  // A hostile tenant name cannot break out of its label: the escaped form
  // contains no raw quote or newline, so the series stays one sample line.
  const std::string escaped = metrics::EscapeLabelValue("evil\"} 1\ninjected_total 9{x=\"");
  EXPECT_EQ(escaped.find('\n'), std::string::npos);
  for (size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] == '"') {
      ASSERT_GT(i, 0u);
      EXPECT_EQ(escaped[i - 1], '\\') << "raw quote at " << i;
    }
  }
}

TEST(EscapeLabelValueTest, EscapedTenantSeriesStaysParseable) {
  MetricsRegistry registry;
  const std::string name =
      "test_tenant_total{tenant=\"" + metrics::EscapeLabelValue("a\"b\\c") + "\"}";
  registry.GetCounter(name)->Add(1);
  const std::string text = registry.TextExposition();
  EXPECT_NE(text.find("test_tenant_total{tenant=\"a\\\"b\\\\c\"} 1\n"), std::string::npos)
      << text;
}

// ---- Histogram exemplars ------------------------------------------------------------------------

TEST(HistogramExemplarTest, KeepsTheLargestObservationsWithTheirTraceIds) {
  MetricsRegistry registry;
  Histogram* hist = registry.GetHistogram("test_exemplar_ms");
  // 2 * kExemplarSlots observations; only the largest kExemplarSlots survive.
  for (int i = 1; i <= 2 * Histogram::kExemplarSlots; ++i) {
    hist->RecordWithExemplar(static_cast<double>(i), 0x1000u + static_cast<uint64_t>(i));
  }
  const std::vector<metrics::Exemplar> exemplars = hist->Exemplars();
  ASSERT_EQ(exemplars.size(), static_cast<size_t>(Histogram::kExemplarSlots));
  for (int i = 0; i < Histogram::kExemplarSlots; ++i) {
    const double want_value = static_cast<double>(2 * Histogram::kExemplarSlots - i);
    EXPECT_EQ(exemplars[static_cast<size_t>(i)].value, want_value) << "sorted descending";
    EXPECT_EQ(exemplars[static_cast<size_t>(i)].trace_id,
              0x1000u + static_cast<uint64_t>(want_value));
  }
  EXPECT_EQ(hist->count(), 2 * Histogram::kExemplarSlots)
      << "RecordWithExemplar must still feed the histogram";
}

TEST(HistogramExemplarTest, ZeroTraceIdRecordsValueButNoExemplar) {
  MetricsRegistry registry;
  Histogram* hist = registry.GetHistogram("test_exemplar_zero_ms");
  hist->RecordWithExemplar(5.0, 0);
  EXPECT_EQ(hist->count(), 1);
  EXPECT_TRUE(hist->Exemplars().empty());
}

TEST(HistogramExemplarTest, ExportersCarryTheTopExemplar) {
  MetricsRegistry registry;
  Histogram* hist = registry.GetHistogram("test_exemplar_export_ms");
  hist->RecordWithExemplar(2.0, 0xaaULL);
  hist->RecordWithExemplar(9.0, 0xbeefULL);
  const std::string text = registry.TextExposition();
  EXPECT_NE(text.find("test_exemplar_export_ms_max 9 "
                      "# {trace_id=\"000000000000beef\"} 9\n"),
            std::string::npos)
      << text;
  const std::string json = registry.JsonSnapshot();
  EXPECT_NE(json.find("\"exemplars\""), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\": \"000000000000beef\""), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\": \"00000000000000aa\""), std::string::npos);
}

// ---- Zero-lookup steady state -------------------------------------------------------------------

TEST(MetricsSteadyStateTest, InstrumentedHotPathsDoNoRegistryLookups) {
  // The SIMT scheduler resolves its counters once per process (a function-
  // local static); after a warm-up launch, further launches must not touch
  // the registry at all — the per-event cost is relaxed adds on cached
  // handles. lookups() counts every Get*/RegisterCallback ever made, so a
  // zero delta across three launches proves the discipline.
  SimtLaunchParams params;
  params.num_blocks = 64;
  params.schedule = BlockSchedule::kChunkedDynamic;
  LaunchBlocks(params, [](int64_t, int) {});  // Warm: resolve cached handles.

  MetricsRegistry& registry = MetricsRegistry::Get();
  Counter* dispatches =
      registry.GetCounter("seastar_simt_dispatches_total{schedule=\"dynamic\"}");
  const int64_t dispatches_before = dispatches->value();
  const int64_t lookups_before = registry.lookups();
  for (int i = 0; i < 3; ++i) {
    LaunchBlocks(params, [](int64_t, int) {});
  }
  EXPECT_EQ(registry.lookups(), lookups_before);
  EXPECT_GT(dispatches->value(), dispatches_before);
}

TEST(MetricsSteadyStateTest, SteadyTrainingEpochsAddNoAllocationsOrLookups) {
  // The acceptance bar for always-on metrics: with no exporter attached, a
  // steady-state epoch performs zero *additional* allocations and zero
  // registry lookups compared to the uninstrumented loop. Warm epochs fill
  // the allocator pool, the plan cache, and every cached metric handle;
  // steady epochs then must neither fresh-malloc nor touch the registry.
  DatasetOptions options;
  options.scale = 0.05;
  options.max_feature_dim = 16;
  Dataset data = MakeDataset(*FindDataset("cora"), options);
  GcnConfig config;
  config.hidden_dim = 8;
  Gcn model(data, config, ExecutorFactory::Create("seastar").value());
  std::vector<Var> parameters = model.Parameters();
  Adam adam(parameters, /*lr=*/0.01f);

  const auto epoch = [&] {
    Var logits = model.Forward(/*training=*/true);
    Var loss = ag::NllLoss(ag::LogSoftmax(logits), data.labels, data.train_mask);
    Backward(loss, Tensor::Ones({1}));
    adam.Step();
    adam.ZeroGrad();
  };
  for (int i = 0; i < 3; ++i) {
    epoch();  // Warm: pool, plan cache, and metric handles all resolve.
  }

  TensorAllocator& allocator = TensorAllocator::Get();
  MetricsRegistry& registry = MetricsRegistry::Get();
  PlanCache& plans = PlanCache::Get();
  const uint64_t fresh_before = allocator.fresh_mallocs();
  const uint64_t plan_misses_before = plans.misses();
  const int64_t lookups_before = registry.lookups();
  for (int i = 0; i < 3; ++i) {
    epoch();
  }
  EXPECT_EQ(allocator.fresh_mallocs(), fresh_before);
  EXPECT_EQ(plans.misses(), plan_misses_before);
  EXPECT_EQ(registry.lookups(), lookups_before);
}

// ---- Flight recorder ----------------------------------------------------------------------------

TEST(FlightRecorderTest, KeepsTheNewestEventsInOrderAcrossWraparound) {
  FlightRecorder& recorder = FlightRecorder::Get();
  const uint64_t recorded_before = recorder.recorded();
  const int kEvents = FlightRecorder::kCapacity + 100;
  for (int i = 0; i < kEvents; ++i) {
    recorder.Record("mtest", "wrap", i, 2 * i);
  }
  EXPECT_EQ(recorder.recorded(), recorded_before + kEvents);

  const std::vector<FlightEvent> events = recorder.Snapshot();
  ASSERT_FALSE(events.empty());
  EXPECT_LE(events.size(), static_cast<size_t>(FlightRecorder::kCapacity));
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
  // The newest event survives wraparound with its payload intact.
  const FlightEvent& last = events.back();
  EXPECT_STREQ(last.category, "mtest");
  EXPECT_EQ(last.a, kEvents - 1);
  EXPECT_EQ(last.b, 2 * (kEvents - 1));
  EXPECT_EQ(last.seq, recorder.recorded());
}

TEST(FlightRecorderTest, TruncatesOverlongFieldsInsteadOfOverflowing) {
  FlightRecorder& recorder = FlightRecorder::Get();
  const std::string long_detail(500, 'x');
  recorder.Record("category-name-beyond-slot-width", long_detail, 1);
  const std::vector<FlightEvent> events = recorder.Snapshot();
  ASSERT_FALSE(events.empty());
  const FlightEvent& event = events.back();
  EXPECT_LT(std::string(event.category).size(), sizeof(event.category));
  EXPECT_LT(std::string(event.detail).size(), sizeof(event.detail));
}

TEST(FlightRecorderTest, DumpRendersCategoriesAndPayloads) {
  FlightRecorder& recorder = FlightRecorder::Get();
  recorder.Record("mtest", "dump probe", 42);
  const std::string dump = recorder.Dump();
  EXPECT_NE(dump.find("mtest"), std::string::npos);
  EXPECT_NE(dump.find("dump probe"), std::string::npos);
  EXPECT_NE(dump.find("a=42"), std::string::npos);
}

TEST(FlightRecorderDeathTest, CrashDumpHookWritesRingAndMetricsToStderr) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        FlightRecorder::InstallCrashDump();
        MetricsRegistry::Get().GetCounter("test_crash_total")->Add(1);
        FlightRecorder::Get().Record("mtest", "moments before disaster", 7);
        SEASTAR_CHECK(false) << "deliberate";
      },
      "moments before disaster(.|\n)*test_crash_total");
}

TEST(FlightRecorderTest, ConcurrentWritersNeverTearEvents) {
  FlightRecorder& recorder = FlightRecorder::Get();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 4000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      for (int i = 0; i < kPerThread; ++i) {
        recorder.Record("mt", "race", t, i);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  // Every surviving slot must be internally consistent: a published "mt"
  // event carries a thread id and iteration inside the written ranges.
  for (const FlightEvent& event : recorder.Snapshot()) {
    if (std::string(event.category) == "mt") {
      EXPECT_GE(event.a, 0);
      EXPECT_LT(event.a, kThreads);
      EXPECT_GE(event.b, 0);
      EXPECT_LT(event.b, kPerThread);
    }
  }
}

}  // namespace
}  // namespace seastar
