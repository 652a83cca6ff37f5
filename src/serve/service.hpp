#pragma once
// EstimatorService: load a model bundle once, answer estimate() calls from
// any number of threads (DESIGN.md section 8).
//
// Serving rules:
//   * Bundles are resolved through the ModelRegistry and cached in a small
//     LRU keyed by model name; a served bundle is immutable and shared, so
//     an eviction never invalidates an in-flight prediction (shared_ptr
//     keeps it alive until the last request drops it).
//   * Batched prediction is deterministic micro-batching over the PR-2
//     ThreadPool: rows are split into fixed-size grains, each grain writes
//     into a pre-sized slot range of the output vector, and prediction is
//     pure, so results are bit-identical at any `jobs` value and identical
//     to the sequential loop.
//   * Counters (requests, rows, loads, LRU hits/misses/evictions, latency)
//     are aggregated under the same mutex that guards the LRU, and are
//     monotonically increasing totals -- cheap enough at estimator-service
//     granularity (one lock per request, never per row).

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/breaker.hpp"
#include "common/histogram.hpp"
#include "common/thread_pool.hpp"
#include "serve/registry.hpp"

namespace mf {

struct ServiceOptions {
  /// LRU capacity in loaded bundles (>= 1).
  std::size_t max_loaded_bundles = 4;
  /// Worker threads for batched prediction: 1 = sequential, 0 = hardware
  /// concurrency. Bit-identical results at any value.
  int jobs = MF_JOBS_DEFAULT;
  /// Rows per micro-batch grain; small enough to load-balance, large
  /// enough to amortise task dispatch.
  std::size_t batch_grain = 256;
  /// Circuit breaker (self-healing serving). 0 disables it: a resolve
  /// failure then returns nullopt exactly as before. N >= 1 arms it: a
  /// model whose resolve fails is served `fallback_cf` instead (degraded,
  /// never erroring -- the paper's constant-CF baseline is always a valid
  /// answer), and after N *consecutive* failures the breaker opens:
  /// requests skip the registry entirely (no disk scan / parse per call)
  /// until `breaker_cooldown_seconds` passes, when one half-open probe is
  /// let through -- success closes the breaker, failure re-opens it for
  /// another cool-down. All transitions are counted in ServiceStats.
  int breaker_failure_threshold = 0;
  double breaker_cooldown_seconds = 30.0;
  /// CF served while degraded (RW's default constant).
  double fallback_cf = 1.5;
  /// Cooperative cancellation for batched prediction: a tripped token makes
  /// predict_rows() stop scheduling grains and return nullopt (partial
  /// batches are never returned); last_error() reports the cancellation.
  const CancelToken* cancel = nullptr;
};

/// Monotonic service counters (totals since construction).
struct ServiceStats {
  std::uint64_t requests = 0;      ///< estimate() + predict_rows() calls
  std::uint64_t rows = 0;          ///< total rows predicted
  std::uint64_t bundle_loads = 0;  ///< registry resolutions (LRU misses)
  std::uint64_t lru_hits = 0;
  std::uint64_t evictions = 0;
  std::uint64_t latency_ns = 0;    ///< summed wall time inside predict calls
  /// Per-request wall time (ns) in fixed log2 buckets; p50/p99 for the
  /// serving daemon come from here (latency.quantile_max(0.5) etc.), not
  /// from a recomputation outside the service.
  Log2Histogram latency;
  std::uint64_t resolve_failures = 0;  ///< acquire() found no usable bundle
  std::uint64_t breaker_trips = 0;     ///< closed/half-open -> open edges
  std::uint64_t fallback_requests = 0; ///< requests served the constant CF
};

class EstimatorService {
 public:
  EstimatorService(std::string registry_dir, ServiceOptions options = {});

  /// Predict one module's CF with the named model. nullopt when no usable
  /// bundle resolves; last_error() then explains why.
  std::optional<double> estimate(const std::string& model,
                                 const ResourceReport& report,
                                 const ShapeReport& shape);

  /// Batched prediction over pre-extracted feature rows. Row i of the
  /// result corresponds to rows[i]; bit-identical at any jobs value.
  ///
  /// `version` pins an exact bundle version (>= 1): the serving daemon's
  /// canary/stable routing needs two live versions of one name, so pinned
  /// entries get their own LRU slot (`name@vN`) and load via
  /// ModelRegistry::load instead of newest-clean resolve. A pinned version
  /// that is missing or damaged returns nullopt -- never the fallback CF
  /// and never a breaker trip; degraded serving stays a newest-resolve
  /// (version <= 0) policy, because "this exact version is bad" is the
  /// signal the canary controller consumes.
  std::optional<std::vector<double>> predict_rows(
      const std::string& model,
      const std::vector<std::vector<double>>& rows, int version = 0);

  /// The bundle a name currently serves (loading it if needed) -- for
  /// provenance display; shares the LRU with the predict paths. Same
  /// version-pinning contract as predict_rows.
  std::shared_ptr<const ModelBundle> bundle(const std::string& model,
                                            int version = 0);

  [[nodiscard]] ServiceStats stats() const;
  /// Race-free copy of the counters *and* histograms: one mutex acquisition,
  /// no torn histogram reads. (stats() is kept as the legacy alias.)
  [[nodiscard]] ServiceStats snapshot() const { return stats(); }
  [[nodiscard]] std::string last_error() const;
  [[nodiscard]] const ModelRegistry& registry() const noexcept {
    return registry_;
  }

 private:
  std::shared_ptr<const ModelBundle> acquire(const std::string& model,
                                             int version = 0);
  /// The named model's breaker, created closed (caller holds mutex_).
  Breaker& breaker_for(const std::string& model);
  void record_latency(std::uint64_t ns, std::uint64_t rows);
  /// Degraded-path bookkeeping for one request of `rows` rows served the
  /// constant fallback CF.
  void record_fallback(std::uint64_t ns, std::uint64_t rows);

  ModelRegistry registry_;
  ServiceOptions options_;

  mutable std::mutex mutex_;
  /// LRU: most-recently-used at the front; list nodes own the cache keys.
  std::list<std::pair<std::string, std::shared_ptr<const ModelBundle>>> lru_;
  std::unordered_map<std::string, decltype(lru_)::iterator> index_;
  std::unordered_map<std::string, Breaker> breakers_;
  ServiceStats stats_;
  std::string last_error_;
};

}  // namespace mf
