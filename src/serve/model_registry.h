// Model registry: the (model, graph, weights-version) entries a Server
// hosts, one or many, with zero-downtime weight hot-swap. A single-tenant
// server is a one-entry registry; nothing else differs.
//
// Ownership model (RCU over shared_ptr):
//
//   Lookup() ----> shared_ptr<const ModelEntry>  (the *live* entry)
//                        |
//   admission pins it in PendingRequest::entry; the serving thread executes
//   each batch against the entry its requests pinned, never "the latest".
//
//   PrepareSwap() builds version N+1 off to the side without touching the
//   live entry; Publish() atomically flips the live pointer. Requests
//   admitted before the flip keep — and are answered by — version N;
//   requests admitted after get N+1. Version N is
//   *retired* (PollRetired reports it) only when the last pinned reference
//   drains, generalizing the checkpoint ".prev" rotation to in-memory
//   weights: there is always a moment where both generations exist, and the
//   old one disappears only when provably unused.
//
// Weight loading: Register (version 1) and PrepareSwap (version N+1) share
// one load-and-apply path: factory build, tag-checked checkpoint load
// (riding the .prev fallback), shape-checked weight copy. A transient read
// fault (kUnavailable) is retried 3 times after 0.5 * 2^k ms, each retry
// counted in seastar_serve_checkpoint_read_retries_total; a missing file, a
// wrong tag or a corrupt snapshot fails at once. Weights are written only
// into a generation that is not yet published.
//
// All entries share the process-wide plan cache and the pool allocator by
// construction (both are process singletons keyed by program/graph identity
// and tensor shape respectively), so a hot-swapped version of the same
// architecture warms up entirely from cache: 0 plan misses, 0 fresh mallocs
// after the flip is the expected steady state, not an aspiration.
//
// Thread safety: every method is mutex-guarded. Lookup is on the admission
// path (client threads); a per-request mutex acquisition matches the cost
// profile of the admission queue itself.
#ifndef SRC_SERVE_MODEL_REGISTRY_H_
#define SRC_SERVE_MODEL_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/models/model.h"
#include "src/graph/datasets.h"

namespace seastar {
namespace serve {

// Identity of what an entry executes: model id, weights version, model
// architecture, and graph shape. Two entries that differ in *any* of these
// must never answer each other's requests — the micro-batcher's batch key is
// derived from this. Never returns 0 (reserved for "don't care" in requests).
uint64_t ComputeEntryFingerprint(const std::string& model_id, int64_t version,
                                 const GnnModel& model, const Dataset& data);

// One immutable (model, graph, version) generation. Entries are created by
// the registry and published as shared_ptr<const ModelEntry>; the model
// object itself is written only while its generation is built (checkpoint
// restore in Register or PrepareSwap, before publication), never while
// reachable through Lookup.
class ModelEntry {
 public:
  ModelEntry(std::string model_id, int64_t version, std::shared_ptr<GnnModel> model,
             const Dataset* data);

  ModelEntry(const ModelEntry&) = delete;
  ModelEntry& operator=(const ModelEntry&) = delete;

  const std::string& model_id() const { return model_id_; }
  int64_t version() const { return version_; }
  // The model is logically const while published (inference only); Forward
  // is non-const in the interface, hence the mutable access.
  GnnModel& model() const { return *model_; }
  const Dataset& data() const { return *data_; }
  uint64_t fingerprint() const { return fingerprint_; }

 private:
  const std::string model_id_;
  const int64_t version_;
  const std::shared_ptr<GnnModel> model_;  // No-op deleter when borrowed.
  const Dataset* const data_;
  const uint64_t fingerprint_;
};

// Builds a fresh instance of a model architecture bound to its dataset; the
// registry calls it once per weights generation.
using ModelFactory = std::function<std::unique_ptr<GnnModel>()>;

struct RetiredEntry {
  std::string model_id;
  int64_t version = 0;
};

struct ModelEntryInfo {
  std::string model_id;
  int64_t version = 0;
  uint64_t fingerprint = 0;
  bool swappable = false;  // False for borrowed registrations (no factory).
};

class ModelRegistry {
 public:
  ModelRegistry() = default;

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  // Factory-backed registration: builds version 1 now; `initial_checkpoint`
  // ("" = fresh initialization) is restored into it tag-checked against
  // `model_id`, with transient read faults retried. Only factory-backed
  // entries can hot-swap.
  StatusOr<std::shared_ptr<const ModelEntry>> Register(const std::string& model_id,
                                                       const Dataset& data, ModelFactory factory,
                                                       const std::string& initial_checkpoint = "");

  // Borrowed registration: the caller keeps ownership of `model` (which must
  // outlive the registry) and its weights; the entry serves that very object
  // and cannot hot-swap. Server(GnnModel&, ...) registers its model this way.
  StatusOr<std::shared_ptr<const ModelEntry>> RegisterBorrowed(const std::string& model_id,
                                                               GnnModel& model,
                                                               const Dataset& data);

  // The live entry for `model_id`, or null when unknown.
  std::shared_ptr<const ModelEntry> Lookup(const std::string& model_id) const;

  // Stages weights version N+1 through the same load path as Register:
  // factory-builds a fresh model and restores `checkpoint_path` into it.
  // Pure load-and-copy — no forward pass, no effect on the live entry — so it
  // may run on any thread while serving continues. The staged entry becomes
  // visible only through Publish().
  StatusOr<std::shared_ptr<const ModelEntry>> PrepareSwap(const std::string& model_id,
                                                          const std::string& checkpoint_path);

  // Atomically flips the live entry for staged->model_id() to `staged` and
  // returns the entry it replaced. The old generation stays valid for every
  // request that pinned it and is reported by PollRetired() once drained.
  StatusOr<std::shared_ptr<const ModelEntry>> Publish(std::shared_ptr<const ModelEntry> staged);

  // Generations replaced by Publish whose last pinned reference has since
  // dropped. Each retirement is reported exactly once.
  std::vector<RetiredEntry> PollRetired();
  // Replaced generations still pinned by in-flight work.
  int64_t pending_retirements() const;

  std::vector<ModelEntryInfo> List() const;
  size_t size() const;

 private:
  struct Slot {
    std::shared_ptr<const ModelEntry> live;
    ModelFactory factory;  // Null for borrowed registrations.
    const Dataset* data = nullptr;
  };
  struct Retiring {
    std::weak_ptr<const ModelEntry> entry;
    std::string model_id;
    int64_t version = 0;
  };

  StatusOr<std::shared_ptr<const ModelEntry>> RegisterEntry(const std::string& model_id,
                                                            Slot slot);

  mutable std::mutex mutex_;
  std::map<std::string, Slot> entries_;
  std::vector<Retiring> retiring_;
};

}  // namespace serve
}  // namespace seastar

#endif  // SRC_SERVE_MODEL_REGISTRY_H_
