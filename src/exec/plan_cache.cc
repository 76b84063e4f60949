#include "src/exec/plan_cache.h"

#include <optional>

#include "src/common/metrics.h"

namespace seastar {

PlanCache& PlanCache::Get() {
  static PlanCache* instance = new PlanCache();
  return *instance;
}

PlanCache::PlanCache() {
  // Exported by pull: the registry evaluates these at snapshot time, so the
  // GetOrCompile path pays only for the atomics it already maintained.
  metrics::MetricsRegistry& registry = metrics::MetricsRegistry::Get();
  registry.RegisterCallback("seastar_plan_cache_hits_total", metrics::CallbackKind::kCounter,
                            [this] { return static_cast<double>(hits()); });
  registry.RegisterCallback("seastar_plan_cache_misses_total", metrics::CallbackKind::kCounter,
                            [this] { return static_cast<double>(misses()); });
  registry.RegisterCallback("seastar_plan_cache_entries", metrics::CallbackKind::kGauge,
                            [this] { return static_cast<double>(size()); });
}

std::shared_ptr<const CompiledProgram> PlanCache::GetOrCompile(const GirGraph& gir,
                                                              const FusionOptions& options,
                                                              bool* cache_hit) {
  const Key key{gir.Fingerprint(), options.enable_fusion};
  std::optional<std::promise<std::shared_ptr<const CompiledProgram>>> compiled;  // Miss only.
  Entry entry;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      entry = it->second;
      hits_.fetch_add(1, std::memory_order_relaxed);
    } else {
      if (entries_.size() >= kMaxEntries) {
        entries_.clear();
      }
      entry = compiled.emplace().get_future().share();
      entries_.emplace(key, entry);
      misses_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (cache_hit != nullptr) {
    *cache_hit = !compiled.has_value();
  }
  if (compiled.has_value()) {
    // Compile outside the lock (it is the expensive part); other threads
    // asking for this key meanwhile wait on `entry`, not on the mutex.
    try {
      compiled->set_value(CompileProgram(gir, options));
    } catch (...) {
      compiled->set_exception(std::current_exception());
      std::lock_guard<std::mutex> lock(mutex_);
      entries_.erase(key);
    }
  }
  return entry.get();
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
}

}  // namespace seastar
