#include "src/serve/model_registry.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>

#include "src/common/flight_recorder.h"
#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/core/checkpoint.h"

namespace seastar {
namespace serve {

namespace {

// Transient checkpoint reads (FaultSite::kCheckpointRead surfaces as
// kUnavailable) are retried this many times, after 0.5 * 2^k ms.
constexpr int kCheckpointReadRetries = 3;
constexpr double kCheckpointRetryBaseMs = 0.5;

// Copies `snapshot`'s parameters (and dropout RNG, when both sides have one)
// into `model`, shape-checked; `what` names the source in errors. Gradients
// are cleared: serving never trains.
Status ApplyCheckpointToModel(const TrainCheckpoint& snapshot, GnnModel& model,
                              const std::string& what) {
  std::vector<Var> parameters = model.Parameters();
  if (snapshot.parameters.size() != parameters.size()) {
    return ErrorStatus(StatusCode::kInvalidArgument)
           << what << " holds " << snapshot.parameters.size() << " parameters, model '"
           << model.name() << "' has " << parameters.size();
  }
  for (size_t p = 0; p < parameters.size(); ++p) {
    if (snapshot.parameters[p].shape() != parameters[p].value().shape()) {
      return ErrorStatus(StatusCode::kInvalidArgument)
             << what << " parameter " << p << " is " << snapshot.parameters[p].ShapeString()
             << ", model expects " << parameters[p].value().ShapeString();
    }
  }
  // Inference only restores weights (and dropout RNG for reproducibility of
  // any training-mode probes); optimizer moments stay with the trainer.
  for (size_t p = 0; p < parameters.size(); ++p) {
    Tensor& value = parameters[p].mutable_value();
    std::copy(snapshot.parameters[p].data(), snapshot.parameters[p].data() + value.numel(),
              value.data());
    parameters[p].ClearGrad();
  }
  if (Rng* rng = model.MutableRng(); rng != nullptr && snapshot.model_rng.has_value()) {
    rng->RestoreState(*snapshot.model_rng);
  }
  return Status::Ok();
}

// Builds one weights generation of `model_id`: a fresh factory model with
// `checkpoint_path` ("" = its initialization) restored into it, tag-checked
// against `model_id`. The registry's only weight-load path. Transient read
// faults are retried with backoff; a missing file, a wrong tag or a corrupt
// snapshot (after the .prev fallback) fails at once.
StatusOr<std::shared_ptr<GnnModel>> BuildGeneration(const std::string& model_id,
                                                    const ModelFactory& factory,
                                                    const std::string& checkpoint_path) {
  std::shared_ptr<GnnModel> model = factory();
  if (model == nullptr) {
    return ErrorStatus(StatusCode::kInternal)
           << "model '" << model_id << "': factory returned null";
  }
  if (checkpoint_path.empty()) {
    return model;
  }
  static metrics::Counter* const read_retries = metrics::MetricsRegistry::Get().GetCounter(
      "seastar_serve_checkpoint_read_retries_total");
  StatusOr<TrainCheckpoint> snapshot = LoadCheckpoint(checkpoint_path, model_id);
  for (int attempt = 0; attempt < kCheckpointReadRetries && !snapshot.has_value() &&
                        snapshot.status().code() == StatusCode::kUnavailable;
       ++attempt) {
    read_retries->Add(1);
    const double backoff_ms = kCheckpointRetryBaseMs * static_cast<double>(1 << attempt);
    SEASTAR_LOG(Warning) << "model '" << model_id << "': transient checkpoint read failure ("
                         << snapshot.status().message() << "); retrying in " << backoff_ms
                         << " ms";
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(backoff_ms));
    snapshot = LoadCheckpoint(checkpoint_path, model_id);
  }
  if (!snapshot.has_value()) {
    return snapshot.status();
  }
  Status applied =
      ApplyCheckpointToModel(snapshot.value(), *model, "checkpoint '" + checkpoint_path + "'");
  if (!applied.ok()) {
    return applied;
  }
  SEASTAR_LOG(Info) << "model '" << model_id << "': loaded '" << checkpoint_path << "' (epoch "
                    << snapshot->epoch << ")";
  return model;
}

}  // namespace

uint64_t ComputeEntryFingerprint(const std::string& model_id, int64_t version,
                                 const GnnModel& model, const Dataset& data) {
  char buffer[320];
  int written = std::snprintf(
      buffer, sizeof(buffer), "%s|%lld|%s|%lld|%lld|%lld|%lld", model_id.c_str(),
      static_cast<long long>(version), model.name(),
      static_cast<long long>(data.graph.num_vertices()),
      static_cast<long long>(data.graph.num_edges()),
      static_cast<long long>(data.spec.num_classes),
      static_cast<long long>(data.features.defined() ? data.features.dim(1) : 0));
  const size_t length =
      written < 0 ? 0 : std::min(static_cast<size_t>(written), sizeof(buffer) - 1);
  uint64_t hash = Fnv1a64(buffer, length);
  return hash != 0 ? hash : 1;  // 0 is reserved for "don't care" in requests.
}

ModelEntry::ModelEntry(std::string model_id, int64_t version, std::shared_ptr<GnnModel> model,
                       const Dataset* data)
    : model_id_(std::move(model_id)),
      version_(version),
      model_(std::move(model)),
      data_(data),
      fingerprint_(ComputeEntryFingerprint(model_id_, version_, *model_, *data_)) {
  SEASTAR_CHECK(model_ != nullptr);
  SEASTAR_CHECK(data_ != nullptr);
}

StatusOr<std::shared_ptr<const ModelEntry>> ModelRegistry::RegisterEntry(
    const std::string& model_id, Slot slot) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = entries_.emplace(model_id, std::move(slot));
  if (!inserted) {
    return ErrorStatus(StatusCode::kAlreadyExists)
           << "model id '" << model_id << "' is already registered";
  }
  return it->second.live;
}

StatusOr<std::shared_ptr<const ModelEntry>> ModelRegistry::Register(
    const std::string& model_id, const Dataset& data, ModelFactory factory,
    const std::string& initial_checkpoint) {
  if (model_id.empty()) {
    return ErrorStatus(StatusCode::kInvalidArgument) << "model id must be non-empty";
  }
  if (!factory) {
    return ErrorStatus(StatusCode::kInvalidArgument)
           << "model '" << model_id << "': null factory";
  }
  StatusOr<std::shared_ptr<GnnModel>> model =
      BuildGeneration(model_id, factory, initial_checkpoint);
  if (!model.has_value()) {
    return model.status();
  }
  Slot slot;
  slot.live =
      std::make_shared<const ModelEntry>(model_id, /*version=*/1, *std::move(model), &data);
  slot.factory = std::move(factory);
  slot.data = &data;
  return RegisterEntry(model_id, std::move(slot));
}

StatusOr<std::shared_ptr<const ModelEntry>> ModelRegistry::RegisterBorrowed(
    const std::string& model_id, GnnModel& model, const Dataset& data) {
  if (model_id.empty()) {
    return ErrorStatus(StatusCode::kInvalidArgument) << "model id must be non-empty";
  }
  Slot slot;
  // Aliasing shared_ptr with a no-op deleter: the entry machinery is uniform,
  // the ownership stays with the caller.
  std::shared_ptr<GnnModel> borrowed(&model, [](GnnModel*) {});
  slot.live =
      std::make_shared<const ModelEntry>(model_id, /*version=*/1, std::move(borrowed), &data);
  slot.data = &data;
  return RegisterEntry(model_id, std::move(slot));
}

std::shared_ptr<const ModelEntry> ModelRegistry::Lookup(const std::string& model_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(model_id);
  return it == entries_.end() ? nullptr : it->second.live;
}

StatusOr<std::shared_ptr<const ModelEntry>> ModelRegistry::PrepareSwap(
    const std::string& model_id, const std::string& checkpoint_path) {
  if (checkpoint_path.empty()) {
    return ErrorStatus(StatusCode::kInvalidArgument)
           << "hot-swap of '" << model_id << "' names no checkpoint";
  }
  ModelFactory factory;
  const Dataset* data = nullptr;
  int64_t live_version = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(model_id);
    if (it == entries_.end()) {
      return ErrorStatus(StatusCode::kNotFound) << "model id '" << model_id << "' not registered";
    }
    if (!it->second.factory) {
      return ErrorStatus(StatusCode::kFailedPrecondition)
             << "model '" << model_id
             << "' was registered borrowed (no factory): it cannot hot-swap";
    }
    factory = it->second.factory;
    data = it->second.data;
    live_version = it->second.live->version();
  }
  // Build + load + copy happen outside the registry lock: admissions keep
  // resolving the live entry while the next generation is assembled.
  FlightRecorder::Get().Record("swap", ("load " + model_id).c_str(), live_version + 1);
  StatusOr<std::shared_ptr<GnnModel>> model = BuildGeneration(model_id, factory, checkpoint_path);
  if (!model.has_value()) {
    return model.status();
  }
  SEASTAR_LOG(Info) << "hot-swap: staged '" << model_id << "' version " << (live_version + 1)
                    << " from '" << checkpoint_path << "'";
  return std::make_shared<const ModelEntry>(model_id, live_version + 1, *std::move(model), data);
}

StatusOr<std::shared_ptr<const ModelEntry>> ModelRegistry::Publish(
    std::shared_ptr<const ModelEntry> staged) {
  if (staged == nullptr) {
    return ErrorStatus(StatusCode::kInvalidArgument) << "cannot publish a null entry";
  }
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(staged->model_id());
  if (it == entries_.end()) {
    return ErrorStatus(StatusCode::kNotFound)
           << "model id '" << staged->model_id() << "' not registered";
  }
  if (staged->version() <= it->second.live->version()) {
    return ErrorStatus(StatusCode::kFailedPrecondition)
           << "stale staged entry for '" << staged->model_id() << "': version "
           << staged->version() << " does not advance live version " << it->second.live->version();
  }
  std::shared_ptr<const ModelEntry> old = std::move(it->second.live);
  it->second.live = std::move(staged);
  retiring_.push_back(Retiring{old, old->model_id(), old->version()});
  return old;
}

std::vector<RetiredEntry> ModelRegistry::PollRetired() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<RetiredEntry> drained;
  auto it = retiring_.begin();
  while (it != retiring_.end()) {
    if (it->entry.expired()) {
      drained.push_back(RetiredEntry{it->model_id, it->version});
      it = retiring_.erase(it);
    } else {
      ++it;
    }
  }
  return drained;
}

int64_t ModelRegistry::pending_retirements() const {
  std::lock_guard<std::mutex> lock(mutex_);
  int64_t pending = 0;
  for (const Retiring& r : retiring_) {
    if (!r.entry.expired()) {
      ++pending;
    }
  }
  return pending;
}

std::vector<ModelEntryInfo> ModelRegistry::List() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ModelEntryInfo> infos;
  infos.reserve(entries_.size());
  for (const auto& [id, slot] : entries_) {
    ModelEntryInfo info;
    info.model_id = id;
    info.version = slot.live->version();
    info.fingerprint = slot.live->fingerprint();
    info.swappable = static_cast<bool>(slot.factory);
    infos.push_back(std::move(info));
  }
  return infos;
}

size_t ModelRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace serve
}  // namespace seastar
