#include "serve/service.hpp"

#include <algorithm>
#include <chrono>

#include "common/check.hpp"

namespace mf {
namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

EstimatorService::EstimatorService(std::string registry_dir,
                                   ServiceOptions options)
    : registry_(std::move(registry_dir)), options_(options) {
  MF_CHECK_MSG(options_.max_loaded_bundles >= 1,
               "the bundle LRU needs capacity >= 1");
  MF_CHECK_MSG(options_.batch_grain >= 1, "batch grain must be >= 1");
}

Breaker& EstimatorService::breaker_for(const std::string& model) {
  return breakers_
      .try_emplace(model, options_.breaker_failure_threshold,
                   options_.breaker_cooldown_seconds)
      .first->second;
}

std::shared_ptr<const ModelBundle> EstimatorService::acquire(
    const std::string& model, int version) {
  // A pinned version gets its own LRU slot: the daemon's canary routing
  // keeps `name` (stable) and `name@vN` (candidate) live side by side, and
  // both stay immutable-shared so neither invalidates in-flight work.
  const bool pinned = version >= 1;
  const std::string key =
      pinned ? model + "@v" + std::to_string(version) : model;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      // Refresh recency: splice the hit to the front of the LRU list.
      lru_.splice(lru_.begin(), lru_, it->second);
      ++stats_.lru_hits;
      return it->second->second;
    }
    // Open breaker: skip the registry entirely until the cool-down expires
    // (a broken registry must not cost a directory scan + parse attempt per
    // request); the breaker then lets exactly one half-open probe through.
    if (!pinned && options_.breaker_failure_threshold > 0 &&
        !breaker_for(model).allow(std::chrono::steady_clock::now())) {
      last_error_ = "circuit open for '" + model + "'";
      return nullptr;
    }
  }
  // Resolve outside the lock: disk + parse is the slow path, and two
  // threads racing on the same cold name both load a valid bundle (the
  // second insert wins the cache slot; both predictions are correct).
  ResolveStats resolve_stats;
  std::string load_error;
  std::optional<ModelBundle> bundle =
      pinned ? registry_.load(model, version, &load_error)
             : registry_.resolve(model, std::nullopt, std::nullopt,
                                 &resolve_stats);
  std::lock_guard<std::mutex> lock(mutex_);
  if (!bundle) {
    // A failed pinned load never feeds the breaker or the fallback path:
    // "this exact version is unusable" is an answer the canary controller
    // wants verbatim, while degraded serving remains a newest-resolve story.
    if (pinned) {
      last_error_ = "bundle '" + model + "' v" + std::to_string(version) +
                    " failed to load: " +
                    (load_error.empty() ? "missing" : load_error);
      ++stats_.resolve_failures;
      return nullptr;
    }
    last_error_ = resolve_stats.considered == 0
                      ? "no bundle named '" + model + "' in " +
                            registry_.dir()
                      : "all " + std::to_string(resolve_stats.considered) +
                            " bundle(s) named '" + model +
                            "' rejected: " + resolve_stats.last_error;
    ++stats_.resolve_failures;
    if (options_.breaker_failure_threshold > 0 &&
        breaker_for(model).on_failure(std::chrono::steady_clock::now()) ==
            Breaker::Transition::Opened) {
      ++stats_.breaker_trips;  // closed -> open edge
    }
    return nullptr;
  }
  // A clean load heals the model: close the breaker and forget failures.
  if (!pinned) breakers_.erase(model);
  ++stats_.bundle_loads;
  auto shared = std::make_shared<const ModelBundle>(std::move(*bundle));
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // A racing loader beat us; serve the freshly parsed copy but keep the
    // cache single-entry-per-name.
    lru_.splice(lru_.begin(), lru_, it->second);
    it->second->second = shared;
    return shared;
  }
  lru_.emplace_front(key, shared);
  index_[key] = lru_.begin();
  while (lru_.size() > options_.max_loaded_bundles) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
  return shared;
}

std::optional<double> EstimatorService::estimate(const std::string& model,
                                                 const ResourceReport& report,
                                                 const ShapeReport& shape) {
  const std::uint64_t start = now_ns();
  const std::shared_ptr<const ModelBundle> bundle = acquire(model);
  if (bundle == nullptr) {
    // Degraded serving: with the breaker armed a missing/broken bundle is
    // answered with the constant-CF policy instead of an error (nullopt
    // stays reserved for the breaker-disabled legacy contract).
    if (options_.breaker_failure_threshold > 0) {
      record_fallback(now_ns() - start, 1);
      return options_.fallback_cf;
    }
    return std::nullopt;
  }
  const double value = bundle->estimator.estimate(report, shape);
  record_latency(now_ns() - start, 1);
  return value;
}

std::optional<std::vector<double>> EstimatorService::predict_rows(
    const std::string& model,
    const std::vector<std::vector<double>>& rows, int version) {
  const std::uint64_t start = now_ns();
  const std::shared_ptr<const ModelBundle> bundle = acquire(model, version);
  if (bundle == nullptr) {
    // Pinned versions never degrade to the fallback CF (see acquire()).
    if (version < 1 && options_.breaker_failure_threshold > 0) {
      record_fallback(now_ns() - start, rows.size());
      return std::vector<double>(rows.size(), options_.fallback_cf);
    }
    return std::nullopt;
  }

  // Deterministic micro-batching: grain g covers the half-open slot range
  // [g*grain, min((g+1)*grain, n)) of the pre-sized output. Prediction is
  // pure and every slot is written by exactly one grain, so the result is
  // bit-identical at any jobs value (and to the sequential loop).
  std::vector<double> out(rows.size());
  const std::size_t grain = options_.batch_grain;
  const std::size_t grains = (rows.size() + grain - 1) / grain;
  const CfEstimator& estimator = bundle->estimator;
  parallel_for_each(
      options_.jobs, grains,
      [&](std::size_t g) {
        const std::size_t lo = g * grain;
        const std::size_t hi = std::min(rows.size(), lo + grain);
        for (std::size_t i = lo; i < hi; ++i) {
          out[i] = estimator.predict_row(rows[i]);
        }
      },
      options_.cancel);
  if (options_.cancel != nullptr && options_.cancel->cancelled()) {
    // Never hand back a partially filled batch.
    std::lock_guard<std::mutex> lock(mutex_);
    last_error_ = "predict_rows cancelled for '" + model + "'";
    return std::nullopt;
  }
  record_latency(now_ns() - start, rows.size());
  return out;
}

std::shared_ptr<const ModelBundle> EstimatorService::bundle(
    const std::string& model, int version) {
  return acquire(model, version);
}

void EstimatorService::record_latency(std::uint64_t ns, std::uint64_t rows) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.requests;
  stats_.rows += rows;
  stats_.latency_ns += ns;
  stats_.latency.record(ns);
}

void EstimatorService::record_fallback(std::uint64_t ns, std::uint64_t rows) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.requests;
  stats_.rows += rows;
  stats_.latency_ns += ns;
  stats_.latency.record(ns);
  ++stats_.fallback_requests;
}

ServiceStats EstimatorService::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::string EstimatorService::last_error() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_error_;
}

}  // namespace mf
