#include "farm/chaos.hpp"

#include <chrono>
#include <csignal>
#include <string>
#include <thread>

#include "common/fault_draw.hpp"

namespace mf {

FarmChaos::Action FarmChaos::draw(int shard, int attempt, int ordinal) const {
  if (!opts_.enabled || ordinal < 1) return Action::None;
  const double roll = fault_roll(
      opts_.seed, "farm-chaos:s" + std::to_string(shard) + ":a" +
                      std::to_string(attempt) + ":b" +
                      std::to_string(ordinal));
  constexpr Action kBuckets[] = {Action::Kill, Action::Hang, Action::Slow,
                                 Action::None};
  const Action action =
      kBuckets[fault_pick(roll, {opts_.p_kill, opts_.p_hang, opts_.p_slow})];
  // Kill/hang are real faults and respect the per-shard eligibility budget;
  // an ineligible attempt's fault roll runs slow instead (always benign).
  if (attempt >= opts_.faults_per_shard &&
      (action == Action::Kill || action == Action::Hang)) {
    return Action::Slow;
  }
  return action;
}

void FarmChaos::execute(Action action, double slow_ms) {
  switch (action) {
    case Action::None:
      return;
    case Action::Kill:
      std::raise(SIGKILL);  // uncatchable: simulated hard worker death
      return;               // unreachable
    case Action::Hang:
      // A true hang: no heartbeat, no cancellation polling, no exit. Only
      // the supervisor's staleness detector (SIGKILL) ends this process.
      for (;;) {
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
      }
    case Action::Slow:
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          slow_ms));
      return;
  }
}

}  // namespace mf
