#pragma once
// Seeded process-level fault injection for the DSE farm (DESIGN.md
// section 10).
//
// The PR 1 FaultInjector perturbs *tool invocations inside* one process;
// FarmChaos extends that lineage to the process boundary: a worker asks it
// at every chunk boundary whether to die (SIGKILL -- the supervisor must
// detect the signal death and respawn), hang (stop heartbeating forever --
// the supervisor must detect staleness and SIGKILL it), or run slow (stress
// the work-stealing assignment without faulting).
//
// Decisions are a pure function of (seed, shard, attempt, boundary
// ordinal), so a chaos campaign replays bit-identically regardless of how
// workers interleave, and a respawned attempt draws a fresh stream --
// `faults_per_shard` bounds how many attempts of one shard are eligible for
// faults at all, which is how suites write "dies exactly twice, then
// completes" deterministically. Boundary 0 (before any work) never faults:
// every attempt makes at least one chunk of checkpointed progress, so
// kill-heavy campaigns still terminate.

#include <climits>
#include <cstdint>

namespace mf {

struct FarmChaosOptions {
  bool enabled = false;  ///< master switch; disabled == zero faults
  std::uint64_t seed = 0xfa53ULL;
  double p_kill = 0.0;  ///< SIGKILL self at the boundary
  double p_hang = 0.0;  ///< stop heartbeating forever (supervisor must kill)
  double p_slow = 0.0;  ///< sleep `slow_ms` (no fault, just latency)
  /// Attempts eligible for kill/hang faults: attempt < faults_per_shard.
  /// INT_MAX = every attempt (a poison shard that can never complete).
  int faults_per_shard = INT_MAX;
  double slow_ms = 2.0;
};

class FarmChaos {
 public:
  enum class Action : std::uint8_t { None, Kill, Hang, Slow };

  FarmChaos() = default;
  explicit FarmChaos(const FarmChaosOptions& opts) : opts_(opts) {}

  [[nodiscard]] bool enabled() const noexcept { return opts_.enabled; }
  [[nodiscard]] const FarmChaosOptions& options() const noexcept {
    return opts_;
  }

  /// Fault decision at chunk boundary `ordinal` (>= 1) of `attempt` of
  /// `shard`. Pure function of the options' seed and the three ordinals.
  [[nodiscard]] Action draw(int shard, int attempt, int ordinal) const;

  /// Carry out an action in the calling worker process: Kill raises
  /// SIGKILL (never returns), Hang sleeps forever without touching the
  /// heartbeat, Slow sleeps `slow_ms`. None returns immediately.
  static void execute(Action action, double slow_ms);

  /// draw + execute, the worker's one-line chaos hook.
  void act(int shard, int attempt, int ordinal) const {
    if (opts_.enabled) execute(draw(shard, attempt, ordinal), opts_.slow_ms);
  }

 private:
  FarmChaosOptions opts_;
};

}  // namespace mf
