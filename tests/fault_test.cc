// Fault-tolerance tests: deterministic fault injection, checkpoint
// durability (roundtrip, corruption detection, atomic replace), and the
// training loop's recovery policy (kill/resume equivalence, rollback on
// injected allocation failures, bounded retries, recovery trace spans).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/fault.h"
#include "src/common/rng.h"
#include "src/common/tracing.h"
#include "src/core/checkpoint.h"
#include "src/core/executor_factory.h"
#include "src/core/models/gcn.h"
#include "src/core/train.h"
#include "src/parallel/simt.h"
#include "src/tensor/allocator.h"

namespace seastar {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

Dataset SmallDataset() {
  DatasetOptions options;
  options.scale = 0.05;
  options.max_feature_dim = 16;
  return MakeDataset(*FindDataset("cora"), options);
}

std::shared_ptr<const Executor> SeastarBackend() {
  return ExecutorFactory::Create("seastar").value();
}

// ---- FaultInjector ------------------------------------------------------------------------------

TEST(FaultInjectorTest, DisarmedSitesNeverFire) {
  ScopedFaultClear clear;
  FaultInjector& faults = FaultInjector::Get();
  EXPECT_FALSE(faults.enabled());
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(faults.ShouldFail(FaultSite::kTensorAlloc));
  }
  EXPECT_EQ(faults.injected(FaultSite::kTensorAlloc), 0);
}

TEST(FaultInjectorTest, AfterWindowFiresOnExactHits) {
  ScopedFaultClear clear;
  FaultInjector& faults = FaultInjector::Get();
  faults.Arm(FaultSite::kGraphRead, /*after_n=*/2, /*count=*/2);
  EXPECT_TRUE(faults.enabled());
  // Hits 1..2 pass, hits 3..4 fail, hit 5 passes again.
  EXPECT_FALSE(faults.ShouldFail(FaultSite::kGraphRead));
  EXPECT_FALSE(faults.ShouldFail(FaultSite::kGraphRead));
  EXPECT_TRUE(faults.ShouldFail(FaultSite::kGraphRead));
  EXPECT_TRUE(faults.ShouldFail(FaultSite::kGraphRead));
  EXPECT_FALSE(faults.ShouldFail(FaultSite::kGraphRead));
  EXPECT_EQ(faults.hits(FaultSite::kGraphRead), 5);
  EXPECT_EQ(faults.injected(FaultSite::kGraphRead), 2);
  // Other sites are unaffected.
  EXPECT_FALSE(faults.ShouldFail(FaultSite::kCheckpointWrite));
}

TEST(FaultInjectorTest, ProbabilisticStreamIsReproducible) {
  ScopedFaultClear clear;
  FaultInjector& faults = FaultInjector::Get();
  const auto draw_sequence = [&faults]() {
    faults.ArmProbabilistic(FaultSite::kCheckpointRead, 0.3, /*seed=*/99);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(faults.ShouldFail(FaultSite::kCheckpointRead));
    }
    faults.Disarm(FaultSite::kCheckpointRead);
    return fired;
  };
  const std::vector<bool> first = draw_sequence();
  const std::vector<bool> second = draw_sequence();
  EXPECT_EQ(first, second);
  // With p=0.3 over 64 draws both outcomes must occur.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), true), 64);
}

TEST(FaultInjectorTest, SpecGrammarArmsSites) {
  ScopedFaultClear clear;
  FaultInjector& faults = FaultInjector::Get();
  std::string error;
  ASSERT_TRUE(faults.ConfigureFromSpec("alloc:after=1:count=1;ckpt_write", &error)) << error;
  EXPECT_TRUE(faults.enabled());
  // alloc: hit 1 passes, hit 2 fails.
  EXPECT_FALSE(faults.ShouldFail(FaultSite::kTensorAlloc));
  EXPECT_TRUE(faults.ShouldFail(FaultSite::kTensorAlloc));
  // Bare site name fails its first hit.
  EXPECT_TRUE(faults.ShouldFail(FaultSite::kCheckpointWrite));
}

TEST(FaultInjectorTest, MalformedSpecIsRejectedWithMessage) {
  ScopedFaultClear clear;
  std::string error;
  EXPECT_FALSE(FaultInjector::Get().ConfigureFromSpec("not_a_site:after=1", &error));
  EXPECT_NE(error.find("not_a_site"), std::string::npos);
  error.clear();
  EXPECT_FALSE(FaultInjector::Get().ConfigureFromSpec("alloc:after=banana", &error));
  EXPECT_FALSE(error.empty());
}

TEST(FaultInjectorTest, UnknownSiteErrorListsEveryValidSite) {
  // The rejection message is the documentation a user sees when a --faults=
  // spec has a typo; it must enumerate every site the injector knows,
  // generated from the enum so it can never drift as sites are added.
  ScopedFaultClear clear;
  std::string error;
  EXPECT_FALSE(FaultInjector::Get().ConfigureFromSpec("bogus_site:after=1", &error));
  EXPECT_NE(error.find("bogus_site"), std::string::npos) << error;
  for (int i = 0; i < static_cast<int>(FaultSite::kNumSites); ++i) {
    const char* name = FaultSiteName(static_cast<FaultSite>(i));
    EXPECT_NE(error.find(name), std::string::npos)
        << "error does not list site '" << name << "': " << error;
  }
}

TEST(FaultInjectorTest, ShardSitesParseAndArmFromSpec) {
  ScopedFaultClear clear;
  FaultInjector& faults = FaultInjector::Get();
  ASSERT_TRUE(faults.ConfigureFromSpec(
      "shard_send:after=1;shard_recv:after=0;shard_combine:p=0.5:seed=3;shard_worker"));
  EXPECT_TRUE(faults.enabled());
  EXPECT_FALSE(faults.ShouldFail(FaultSite::kShardSend));  // Hit 0: window opens at 1.
  EXPECT_TRUE(faults.ShouldFail(FaultSite::kShardSend));   // Hit 1 fails.
  EXPECT_TRUE(faults.ShouldFail(FaultSite::kShardRecv));
  EXPECT_TRUE(faults.ShouldFail(FaultSite::kShardWorker));  // Bare name: first hit.
}

TEST(FaultInjectorTest, SiteNamesRoundTrip) {
  for (int i = 0; i < static_cast<int>(FaultSite::kNumSites); ++i) {
    const FaultSite site = static_cast<FaultSite>(i);
    const std::optional<FaultSite> parsed = FaultSiteFromString(FaultSiteName(site));
    ASSERT_TRUE(parsed.has_value()) << FaultSiteName(site);
    EXPECT_EQ(*parsed, site);
  }
  EXPECT_FALSE(FaultSiteFromString("bogus").has_value());
}

// ---- Checkpoint I/O -----------------------------------------------------------------------------

TrainCheckpoint SampleCheckpoint() {
  TrainCheckpoint checkpoint;
  checkpoint.epoch = 17;
  checkpoint.learning_rate = 0.005f;
  checkpoint.retries_used = 2;
  checkpoint.best_loss = 0.731f;
  Rng rng(123);
  rng.NextGaussian();  // Engage the Box-Muller cache so it is exercised too.
  checkpoint.model_rng = rng.SaveState();
  checkpoint.parameters.push_back(Tensor({2, 3}, {1.0f, -2.0f, 3.5f, 0.0f, 4.25f, -0.5f}));
  checkpoint.parameters.push_back(Tensor({3}, {9.0f, 8.0f, 7.0f}));
  checkpoint.has_adam = true;
  checkpoint.adam_t = 42;
  for (const Tensor& p : checkpoint.parameters) {
    checkpoint.adam_m.push_back(Tensor::Zeros(p.shape()));
    checkpoint.adam_v.push_back(Tensor::Ones(p.shape()));
  }
  return checkpoint;
}

void ExpectTensorsEqual(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_EQ(a.data()[i], b.data()[i]) << "element " << i;
  }
}

TEST(CheckpointTest, SaveLoadRoundTripPreservesEveryField) {
  const std::string path = TempPath("seastar_ckpt_roundtrip.ckpt");
  const TrainCheckpoint saved = SampleCheckpoint();
  ASSERT_TRUE(SaveCheckpoint(saved, path).ok());

  StatusOr<TrainCheckpoint> loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.has_value()) << loaded.status().ToString();
  EXPECT_EQ(loaded->epoch, saved.epoch);
  EXPECT_EQ(loaded->learning_rate, saved.learning_rate);
  EXPECT_EQ(loaded->retries_used, saved.retries_used);
  EXPECT_EQ(loaded->best_loss, saved.best_loss);
  ASSERT_TRUE(loaded->model_rng.has_value());
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(loaded->model_rng->words[i], saved.model_rng->words[i]);
  }
  EXPECT_EQ(loaded->model_rng->have_cached_gaussian, saved.model_rng->have_cached_gaussian);
  EXPECT_EQ(loaded->model_rng->cached_gaussian, saved.model_rng->cached_gaussian);
  ASSERT_EQ(loaded->parameters.size(), saved.parameters.size());
  for (size_t p = 0; p < saved.parameters.size(); ++p) {
    ExpectTensorsEqual(loaded->parameters[p], saved.parameters[p]);
  }
  ASSERT_TRUE(loaded->has_adam);
  EXPECT_EQ(loaded->adam_t, saved.adam_t);
  ASSERT_EQ(loaded->adam_m.size(), saved.adam_m.size());
  for (size_t p = 0; p < saved.adam_m.size(); ++p) {
    ExpectTensorsEqual(loaded->adam_m[p], saved.adam_m[p]);
    ExpectTensorsEqual(loaded->adam_v[p], saved.adam_v[p]);
  }
  std::filesystem::remove(path);
}

TEST(CheckpointTest, RestoredRngContinuesTheSameStream) {
  const std::string path = TempPath("seastar_ckpt_rng.ckpt");
  Rng original(7);
  for (int i = 0; i < 5; ++i) {
    original.NextGaussian();  // Advance mid-stream (odd draw: cache engaged).
  }
  TrainCheckpoint checkpoint;
  checkpoint.model_rng = original.SaveState();
  ASSERT_TRUE(SaveCheckpoint(checkpoint, path).ok());
  StatusOr<TrainCheckpoint> loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.has_value()) << loaded.status().ToString();

  Rng restored;
  restored.RestoreState(*loaded->model_rng);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(restored.NextGaussian(), original.NextGaussian()) << "draw " << i;
    EXPECT_EQ(restored.NextUint64(), original.NextUint64()) << "draw " << i;
  }
  std::filesystem::remove(path);
}

TEST(CheckpointTest, FlippedByteIsCaughtByChecksum) {
  const std::string path = TempPath("seastar_ckpt_corrupt.ckpt");
  ASSERT_TRUE(SaveCheckpoint(SampleCheckpoint(), path).ok());

  // Flip one payload byte (header is 24 bytes; 40 is well inside the payload).
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.is_open());
    file.seekg(40);
    char byte = 0;
    file.read(&byte, 1);
    byte ^= 0x5a;
    file.seekp(40);
    file.write(&byte, 1);
  }

  StatusOr<TrainCheckpoint> loaded = LoadCheckpoint(path);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("checksum mismatch"), std::string::npos)
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find(path), std::string::npos);
  std::filesystem::remove(path);
}

TEST(CheckpointTest, TruncatedFileNamesTheCutOffset) {
  const std::string path = TempPath("seastar_ckpt_truncated.ckpt");
  ASSERT_TRUE(SaveCheckpoint(SampleCheckpoint(), path).ok());
  const uintmax_t full_size = std::filesystem::file_size(path);
  ASSERT_GT(full_size, 32u);
  std::filesystem::resize_file(path, full_size - 16);

  StatusOr<TrainCheckpoint> loaded = LoadCheckpoint(path);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("truncated payload"), std::string::npos)
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find("byte offset"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(CheckpointTest, NotACheckpointFileIsRejectedAtTheMagic) {
  const std::string path = TempPath("seastar_ckpt_badmagic.ckpt");
  {
    std::ofstream out(path, std::ios::binary);
    out << "definitely not a checkpoint";
  }
  StatusOr<TrainCheckpoint> loaded = LoadCheckpoint(path);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("bad magic"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(CheckpointTest, MissingFileIsNotFoundNotAbort) {
  const std::string path = TempPath("seastar_ckpt_does_not_exist.ckpt");
  std::filesystem::remove(path);
  StatusOr<TrainCheckpoint> loaded = LoadCheckpoint(path);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(CheckpointTest, InterruptedWriteLeavesPreviousCheckpointIntact) {
  ScopedFaultClear clear;
  const std::string path = TempPath("seastar_ckpt_atomic.ckpt");
  TrainCheckpoint first = SampleCheckpoint();
  first.epoch = 3;
  ASSERT_TRUE(SaveCheckpoint(first, path).ok());

  // Simulate a crash mid-write: the injected fault truncates the tmp file
  // and returns before the rename.
  FaultInjector::Get().Arm(FaultSite::kCheckpointWrite, /*after_n=*/0);
  TrainCheckpoint second = SampleCheckpoint();
  second.epoch = 9;
  const Status interrupted = SaveCheckpoint(second, path);
  EXPECT_FALSE(interrupted.ok());
  EXPECT_EQ(interrupted.code(), StatusCode::kUnavailable);
  FaultInjector::Get().DisarmAll();

  // The previous snapshot is still the one at `path`, still valid.
  StatusOr<TrainCheckpoint> loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.has_value()) << loaded.status().ToString();
  EXPECT_EQ(loaded->epoch, 3);
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".tmp");
}

TEST(CheckpointTest, InjectedReadFaultSurfacesAsUnavailable) {
  ScopedFaultClear clear;
  const std::string path = TempPath("seastar_ckpt_readfault.ckpt");
  ASSERT_TRUE(SaveCheckpoint(SampleCheckpoint(), path).ok());
  FaultInjector::Get().Arm(FaultSite::kCheckpointRead, /*after_n=*/0);
  StatusOr<TrainCheckpoint> loaded = LoadCheckpoint(path);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.status().code(), StatusCode::kUnavailable);
  std::filesystem::remove(path);
}

TEST(CheckpointTest, SaveRotatesPreviousGenerationToPrev) {
  const std::string path = TempPath("seastar_ckpt_rotate.ckpt");
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".prev");

  TrainCheckpoint first = SampleCheckpoint();
  first.epoch = 3;
  ASSERT_TRUE(SaveCheckpoint(first, path).ok());
  EXPECT_FALSE(std::filesystem::exists(path + ".prev"));  // Nothing to rotate yet.

  TrainCheckpoint second = SampleCheckpoint();
  second.epoch = 9;
  ASSERT_TRUE(SaveCheckpoint(second, path).ok());

  StatusOr<TrainCheckpoint> primary = LoadCheckpoint(path);
  ASSERT_TRUE(primary.has_value()) << primary.status().ToString();
  EXPECT_EQ(primary->epoch, 9);
  // The rotated generation is itself a complete, loadable checkpoint.
  StatusOr<TrainCheckpoint> previous = LoadCheckpoint(path + ".prev");
  ASSERT_TRUE(previous.has_value()) << previous.status().ToString();
  EXPECT_EQ(previous->epoch, 3);

  std::filesystem::remove(path);
  std::filesystem::remove(path + ".prev");
}

TEST(CheckpointTest, CorruptPrimaryFallsBackToPrevGeneration) {
  const std::string path = TempPath("seastar_ckpt_fallback.ckpt");
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".prev");

  TrainCheckpoint first = SampleCheckpoint();
  first.epoch = 5;
  ASSERT_TRUE(SaveCheckpoint(first, path).ok());
  TrainCheckpoint second = SampleCheckpoint();
  second.epoch = 11;
  ASSERT_TRUE(SaveCheckpoint(second, path).ok());

  // Bit rot in the newest snapshot: flip a payload byte.
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.is_open());
    file.seekg(40);
    char byte = 0;
    file.read(&byte, 1);
    byte ^= 0x5a;
    file.seekp(40);
    file.write(&byte, 1);
  }

  StatusOr<TrainCheckpoint> loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.has_value()) << loaded.status().ToString();
  EXPECT_EQ(loaded->epoch, 5);  // One generation behind, but alive.

  std::filesystem::remove(path);
  std::filesystem::remove(path + ".prev");
}

TEST(CheckpointTest, TruncatedPrimaryFallsBackToPrevGeneration) {
  const std::string path = TempPath("seastar_ckpt_fallback_trunc.ckpt");
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".prev");

  TrainCheckpoint first = SampleCheckpoint();
  first.epoch = 2;
  ASSERT_TRUE(SaveCheckpoint(first, path).ok());
  TrainCheckpoint second = SampleCheckpoint();
  second.epoch = 8;
  ASSERT_TRUE(SaveCheckpoint(second, path).ok());
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 16);

  StatusOr<TrainCheckpoint> loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.has_value()) << loaded.status().ToString();
  EXPECT_EQ(loaded->epoch, 2);

  std::filesystem::remove(path);
  std::filesystem::remove(path + ".prev");
}

TEST(CheckpointTest, TransientReadFaultDoesNotFallBackToStalePrev) {
  // A transient I/O fault is retryable against the *newer* snapshot;
  // silently resuming one generation behind would lose good epochs.
  ScopedFaultClear clear;
  const std::string path = TempPath("seastar_ckpt_noprevontransient.ckpt");
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".prev");

  TrainCheckpoint first = SampleCheckpoint();
  first.epoch = 4;
  ASSERT_TRUE(SaveCheckpoint(first, path).ok());
  TrainCheckpoint second = SampleCheckpoint();
  second.epoch = 10;
  ASSERT_TRUE(SaveCheckpoint(second, path).ok());

  FaultInjector::Get().Arm(FaultSite::kCheckpointRead, /*after_n=*/0, /*count=*/1);
  StatusOr<TrainCheckpoint> loaded = LoadCheckpoint(path);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_EQ(loaded.status().code(), StatusCode::kUnavailable);
  FaultInjector::Get().DisarmAll();

  // And the retry (fault exhausted) reads the newest generation.
  StatusOr<TrainCheckpoint> retried = LoadCheckpoint(path);
  ASSERT_TRUE(retried.has_value()) << retried.status().ToString();
  EXPECT_EQ(retried->epoch, 10);

  std::filesystem::remove(path);
  std::filesystem::remove(path + ".prev");
}

TEST(CheckpointTest, Fnv1a64MatchesReferenceVectors) {
  // Reference values for the 64-bit FNV-1a test vectors.
  EXPECT_EQ(Fnv1a64("", 0), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a", 1), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("foobar", 6), 0x85944171f73967e8ull);
}

// ---- Training-loop recovery ---------------------------------------------------------------------

TEST(TrainRecoveryTest, KillAndResumeReachesTheSameFinalLoss) {
  ScopedFaultClear clear;
  const std::string path = TempPath("seastar_train_resume.ckpt");
  std::filesystem::remove(path);
  Dataset data = SmallDataset();
  GcnConfig config;

  // Reference: one uninterrupted 12-epoch run.
  TrainConfig train;
  train.epochs = 12;
  train.warmup_epochs = 1;
  train.learning_rate = 0.02f;
  float reference_loss = 0.0f;
  {
    Gcn model(data, config, SeastarBackend());
    TrainResult result = TrainNodeClassification(model, data, train);
    ASSERT_FALSE(result.failed) << result.error;
    ASSERT_EQ(result.epochs_run, 12);
    reference_loss = result.final_loss;
  }

  // "Killed" run: stop after 7 epochs, final checkpoint written at exit.
  {
    Gcn model(data, config, SeastarBackend());
    TrainConfig partial = train;
    partial.epochs = 7;
    partial.checkpoint_path = path;
    partial.checkpoint_every = 5;
    TrainResult result = TrainNodeClassification(model, data, partial);
    ASSERT_FALSE(result.failed) << result.error;
    EXPECT_GE(result.checkpoints_written, 2);  // Epoch 5 + final epoch 7.
  }

  // Fresh process stand-in: a new model resumes from the checkpoint and
  // finishes the remaining 5 epochs.
  {
    Gcn model(data, config, SeastarBackend());
    TrainConfig resumed = train;
    resumed.checkpoint_path = path;
    resumed.checkpoint_every = 5;
    resumed.resume = true;
    TrainResult result = TrainNodeClassification(model, data, resumed);
    ASSERT_FALSE(result.failed) << result.error;
    EXPECT_EQ(result.start_epoch, 7);
    EXPECT_EQ(result.epochs_run, 12);
    // Parameters, Adam moments/step and the dropout RNG stream were all
    // restored, so the resumed trajectory is the uninterrupted one.
    EXPECT_NEAR(result.final_loss, reference_loss, 1e-6f);
  }
  std::filesystem::remove(path);
}

TEST(TrainRecoveryTest, ResumeFromMissingCheckpointFailsCleanly) {
  const std::string path = TempPath("seastar_train_missing.ckpt");
  std::filesystem::remove(path);
  Dataset data = SmallDataset();
  GcnConfig config;
  Gcn model(data, config, SeastarBackend());
  TrainConfig train;
  train.epochs = 4;
  train.resume = true;
  train.checkpoint_path = path;
  TrainResult result = TrainNodeClassification(model, data, train);
  EXPECT_TRUE(result.failed);
  EXPECT_NE(result.error.find(path), std::string::npos) << result.error;
  EXPECT_EQ(result.epochs_run, 0);
}

TEST(TrainRecoveryTest, InjectedAllocFailureRollsBackAndRecovers) {
  ScopedFaultClear clear;
  Dataset data = SmallDataset();
  GcnConfig config;
  Gcn model(data, config, SeastarBackend());

  // Fire a single allocation failure a little way into training; the loop
  // must roll back to its anchor, back off the learning rate, and finish.
  FaultInjector::Get().Arm(FaultSite::kTensorAlloc, /*after_n=*/100, /*count=*/1);

  trace::Tracer profile(trace::TracerConfig{}, trace::Retention::kRun);
  TrainConfig train;
  train.epochs = 8;
  train.warmup_epochs = 1;
  train.learning_rate = 0.02f;
  train.checkpoint_every = 2;  // In-memory anchor refresh only (no path).
  TrainResult result;
  {
    trace::ScopedRun run(&profile, "train", "train");
    result = TrainNodeClassification(model, data, train);
  }

  ASSERT_FALSE(result.failed) << result.error;
  EXPECT_EQ(result.epochs_run, 8);
  ASSERT_EQ(result.rollbacks, 1);
  ASSERT_EQ(result.recovery_events.size(), 1u);
  const RecoveryEvent& event = result.recovery_events[0];
  EXPECT_EQ(event.kind, "alloc_failure");
  EXPECT_EQ(event.retry, 1);
  EXPECT_NEAR(event.lr_after, 0.01f, 1e-6f);  // 0.02 * 0.5 backoff.
  EXPECT_GE(event.rollback_epoch, 0);
  EXPECT_LE(event.rollback_epoch, event.epoch);
  EXPECT_TRUE(std::isfinite(result.final_loss));

  // The recovery is visible in the trace as a "recovery" span.
  bool saw_recovery_span = false;
  profile.ForEachRetained([&](const trace::RequestTrace& run) {
    for (int i = 0; i < run.num_spans(); ++i) {
      if (std::string(run.span(i).category) == "recovery") {
        saw_recovery_span = true;
        EXPECT_STREQ(run.span(i).name, "alloc_failure");
      }
    }
  });
  EXPECT_TRUE(saw_recovery_span);
}

TEST(TrainRecoveryTest, RetriesAreBoundedAndFailureIsStructured) {
  ScopedFaultClear clear;
  Dataset data = SmallDataset();
  GcnConfig config;
  Gcn model(data, config, SeastarBackend());

  // An absurd learning rate corrupts the parameters on every step, so each
  // retry blows up again; the loop must give up after max_retries rollbacks
  // with a structured error instead of looping forever or aborting.
  TrainConfig train;
  train.epochs = 50;
  train.warmup_epochs = 0;
  train.learning_rate = 1e20f;
  train.max_retries = 2;
  TrainResult result = TrainNodeClassification(model, data, train);

  EXPECT_TRUE(result.failed);
  EXPECT_NE(result.error.find("retries exhausted"), std::string::npos) << result.error;
  EXPECT_EQ(result.rollbacks, 3);  // max_retries + the one that exhausted them.
  ASSERT_GE(result.recovery_events.size(), 3u);
  for (const RecoveryEvent& event : result.recovery_events) {
    EXPECT_TRUE(event.kind == "non_finite_loss" || event.kind == "divergence" ||
                event.kind == "non_finite_grad")
        << event.kind;
  }
}

TEST(TrainRecoveryTest, FiniteLossAboveOneMillionIsDivergenceAndHalvesTheLr) {
  ScopedFaultClear clear;
  Dataset data = SmallDataset();
  GcnConfig config;
  Gcn model(data, config, SeastarBackend());

  // Scale the output projection until the logits spread by about 1e7: the
  // loss stays finite but lands far above the monitor's 1e6 bound. The
  // rollback anchor holds the scaled weights, so every retry diverges too.
  const Tensor logits = model.Forward(/*training=*/false).value();
  const auto [lo, hi] = std::minmax_element(logits.data(), logits.data() + logits.numel());
  const float scale = 1e7f / (*hi - *lo);
  std::vector<Var> parameters = model.Parameters();
  Tensor& weight = parameters[static_cast<size_t>(config.num_layers) - 1].mutable_value();
  for (int64_t i = 0; i < weight.numel(); ++i) {
    weight.data()[i] *= scale;
  }

  TrainConfig train;
  train.epochs = 2;
  train.warmup_epochs = 0;
  train.max_retries = 1;
  TrainResult result = TrainNodeClassification(model, data, train);

  EXPECT_TRUE(result.failed);
  ASSERT_EQ(result.recovery_events.size(), 2u);
  const RecoveryEvent& first = result.recovery_events[0];
  EXPECT_EQ(first.kind, "divergence") << first.detail;
  EXPECT_EQ(first.epoch, 0);
  EXPECT_EQ(first.lr_after, 0.5f * train.learning_rate);
  EXPECT_EQ(result.recovery_events[1].kind, "divergence");
  EXPECT_EQ(result.recovery_events[1].lr_after, 0.25f * train.learning_rate);
}

TEST(TrainRecoveryTest, CheckpointWriteFailureIsRecordedButNonFatal) {
  ScopedFaultClear clear;
  const std::string path = TempPath("seastar_train_wfail.ckpt");
  std::filesystem::remove(path);
  Dataset data = SmallDataset();
  GcnConfig config;
  Gcn model(data, config, SeastarBackend());

  // Every checkpoint write fails; training must still complete on the
  // in-memory anchor and log the failures as recovery events.
  FaultInjector::Get().Arm(FaultSite::kCheckpointWrite, /*after_n=*/0, /*count=*/1000);
  TrainConfig train;
  train.epochs = 6;
  train.warmup_epochs = 1;
  train.checkpoint_path = path;
  train.checkpoint_every = 2;
  TrainResult result = TrainNodeClassification(model, data, train);

  ASSERT_FALSE(result.failed) << result.error;
  EXPECT_EQ(result.epochs_run, 6);
  EXPECT_EQ(result.checkpoints_written, 0);
  ASSERT_GE(result.recovery_events.size(), 1u);
  for (const RecoveryEvent& event : result.recovery_events) {
    EXPECT_EQ(event.kind, "checkpoint_error");
    EXPECT_EQ(event.rollback_epoch, -1);  // No rollback: write-only failure.
  }
  EXPECT_FALSE(std::filesystem::exists(path));
  std::filesystem::remove(path + ".tmp");
}

// ---- SIMT worker stalls -------------------------------------------------------------------------

TEST(SimtFaultTest, InjectedWorkerStallsDoNotChangeDispatchResults) {
  ScopedFaultClear clear;
  FaultInjector::Get().Arm(FaultSite::kSimtWorker, /*after_n=*/0, /*count=*/1000000);
  for (BlockSchedule schedule :
       {BlockSchedule::kStatic, BlockSchedule::kAtomicPerBlock, BlockSchedule::kChunkedDynamic}) {
    constexpr int64_t kNumBlocks = 48;
    std::vector<std::atomic<int>> runs(kNumBlocks);
    SimtLaunchStats stats;
    SimtLaunchParams params;
    params.num_blocks = kNumBlocks;
    params.schedule = schedule;
    params.chunk_size = 8;
    params.stats = &stats;
    LaunchBlocks(params, [&runs](int64_t block, int /*worker*/) {
      runs[block].fetch_add(1, std::memory_order_relaxed);
    });
    for (int64_t b = 0; b < kNumBlocks; ++b) {
      EXPECT_EQ(runs[b].load(), 1) << BlockScheduleName(schedule) << " block " << b;
    }
    EXPECT_EQ(stats.blocks_run, kNumBlocks) << BlockScheduleName(schedule);
  }
  EXPECT_GT(FaultInjector::Get().injected(FaultSite::kSimtWorker), 0);
}

}  // namespace
}  // namespace seastar
