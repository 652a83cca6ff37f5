#pragma once
// Fault-tolerant tool-run layer.
//
// The paper's entire cost metric is "tool runs" (Section VIII), but in the
// real Vivado/RapidWright flow those runs crash, hang, and return spurious
// verdicts -- the pre-implemented-block cache exists precisely so a design
// iteration survives partial failure. This layer gives the simulator the
// same fault surface:
//
//   * FaultInjector -- seeded, deterministic injection of transient crashes,
//     timeouts, and spurious-infeasible verdicts at configurable per-run
//     probabilities. The decision for the k-th invocation of a block is a
//     pure function of (seed, block name, k), so chaos tests replay
//     bit-identically regardless of how sibling blocks interleave.
//   * ToolRunner -- wraps every feasibility check (the detailed-place calls
//     inside the CF searches) with retry + capped exponential backoff and a
//     per-block retry budget, surfacing a structured FlowError when the
//     budget is exhausted instead of a bare `bool`.
//
// Backoff is *simulated*: the runner accounts the wall-clock a real flow
// would have waited (ToolRunStats::backoff_ms) without sleeping, so chaos
// suites stay fast and deterministic.
//
// Note on layering: this header lives in flow/ (it is the flow's fault
// model) but is consumed by core/cf_search, which hosts the feasibility
// checks being wrapped. It depends only on place/ and common/.

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "place/detailed_placer.hpp"

namespace mf {

/// What the injector does to one physical tool invocation.
enum class FaultKind : std::uint8_t {
  None,                ///< invocation runs the real check
  Crash,               ///< tool dies before producing a verdict
  Timeout,             ///< tool hangs past its deadline; no verdict
  SpuriousInfeasible,  ///< tool completes but reports a false "infeasible"
};

[[nodiscard]] const char* to_string(FaultKind kind) noexcept;

struct FaultInjectorOptions {
  bool enabled = false;  ///< master switch; disabled == zero faults
  std::uint64_t seed = 0xfa017ULL;
  double p_crash = 0.0;
  double p_timeout = 0.0;
  double p_spurious_infeasible = 0.0;
};

/// Deterministic fault source. `draw(block, k)` is a pure function of the
/// options' seed, the block name, and the per-block invocation ordinal `k`.
class FaultInjector {
 public:
  FaultInjector() = default;
  explicit FaultInjector(const FaultInjectorOptions& opts);

  [[nodiscard]] bool enabled() const noexcept { return opts_.enabled; }
  [[nodiscard]] const FaultInjectorOptions& options() const noexcept {
    return opts_;
  }

  /// Fault decision for the k-th invocation of `block`.
  [[nodiscard]] FaultKind draw(std::string_view block, int ordinal) const;

 private:
  FaultInjectorOptions opts_;
};

/// Structured error taxonomy for the flow (replaces `bool ok`).
enum class FlowErrorKind : std::uint8_t {
  None,              ///< no error
  ToolCrash,         ///< crashes exhausted the retry budget
  ToolTimeout,       ///< timeouts exhausted the retry budget
  Infeasible,        ///< every completed check up to max_cf said infeasible
  NoPBlock,          ///< no rectangle exists at any searched CF
  DegradedExhausted, ///< escalated-CF fallback failed too
};

[[nodiscard]] const char* to_string(FlowErrorKind kind) noexcept;

struct FlowError {
  FlowErrorKind kind = FlowErrorKind::None;
  std::string block;
  double cf = 0.0;    ///< CF the failing check ran at (0 when n/a)
  int attempts = 0;   ///< physical invocations spent on the failing check

  [[nodiscard]] bool failed() const noexcept {
    return kind != FlowErrorKind::None;
  }
};

/// Human-readable one-liner, e.g. "tool-crash block=mvau_3 cf=1.2 attempts=4".
[[nodiscard]] std::string to_string(const FlowError& error);

struct RetryOptions {
  /// Physical invocations allowed per feasibility check (1 = no retry).
  int max_attempts_per_check = 4;
  /// Total retries (re-invocations after crash/timeout) allowed per block
  /// across all of its checks -- RapidLayout-style "give up on a block that
  /// keeps burning the cluster".
  int retry_budget_per_block = 16;
  /// Retry n waits min(cap, base * 2^(n-1)) (capped_backoff_ms).
  double backoff_base_ms = 50.0;
  double backoff_cap_ms = 2000.0;
};

struct ToolRunnerOptions {
  FaultInjectorOptions fault;
  RetryOptions retry;
};

/// Aggregate counters across every check routed through one ToolRunner.
struct ToolRunStats {
  long invocations = 0;  ///< physical tool invocations, retries included
  long completed = 0;    ///< invocations that produced a verdict; equals the
                         ///< paper's tool-run count for the wrapped searches
  long crashes = 0;
  long timeouts = 0;
  long spurious = 0;     ///< feasible verdicts flipped to infeasible
  long retries = 0;
  double backoff_ms = 0.0;  ///< simulated wall-clock spent backing off
};

/// Wraps feasibility checks with fault injection and a retry policy.
///
/// Thread safety: one runner may be shared by a parallel flow, with the
/// contract that all checks for a given block come from a single task (the
/// flow implements one block per task, so this holds by construction).
/// Per-block state lives in a shard-locked map -- the shard lock covers only
/// the map lookup/insert, never the placement call -- and every counter is
/// per-block, so the final aggregate stats() are bit-identical at any thread
/// count (FaultInjector::draw is a pure function of (seed, block, ordinal),
/// and backoff_ms is summed in shard-then-name order, which depends only on
/// the set of block names, not on scheduling).
class ToolRunner {
 public:
  ToolRunner() : ToolRunner(ToolRunnerOptions{}) {}
  explicit ToolRunner(const ToolRunnerOptions& opts);
  ToolRunner(const ToolRunner& other);
  ToolRunner& operator=(const ToolRunner& other);

  struct CheckOutcome {
    bool completed = false;  ///< a verdict was produced (possibly spurious)
    PlaceResult place;       ///< valid when completed
    FlowError error;         ///< set when !completed
    int attempts = 0;        ///< physical invocations this check consumed
  };

  /// Run one feasibility check for `block` at correction factor `cf`.
  /// `check` executes the real placement; it is only called when the
  /// injector lets the invocation complete.
  CheckOutcome run_check(const std::string& block, double cf,
                         const std::function<PlaceResult()>& check);

  /// Grant `block` a fresh retry budget. The degradation path calls this so
  /// the escalated-CF fallback is not doomed by the budget the primary
  /// search already burned.
  void grant_fresh_budget(const std::string& block);

  [[nodiscard]] bool fault_injection_enabled() const noexcept {
    return injector_.enabled();
  }
  /// Aggregate over every block, summed in a schedule-independent order.
  [[nodiscard]] ToolRunStats stats() const;
  [[nodiscard]] int retries_used(const std::string& block) const;
  /// Physical invocations spent on one block so far. Parallel flows use the
  /// per-block delta instead of a global-invocations delta, which would
  /// absorb sibling blocks' interleaved checks.
  [[nodiscard]] long invocations_for(const std::string& block) const;
  [[nodiscard]] const ToolRunnerOptions& options() const noexcept {
    return opts_;
  }

 private:
  /// All mutable per-block state, touched only by the task implementing the
  /// block (node pointers into the shard map stay valid across inserts).
  struct BlockState {
    int ordinal = 0;       ///< per-block invocation count
    int retries_used = 0;  ///< per-block budget tracking
    ToolRunStats stats;    ///< this block's contribution to the aggregate
  };
  struct Shard {
    mutable std::mutex mutex;
    std::map<std::string, BlockState> blocks;
  };
  static constexpr std::size_t kShards = 16;

  [[nodiscard]] Shard& shard_of(std::string_view block) const noexcept;
  [[nodiscard]] BlockState& state_of(const std::string& block) const;

  ToolRunnerOptions opts_;
  FaultInjector injector_;
  mutable std::array<Shard, kShards> shards_;
};

}  // namespace mf
