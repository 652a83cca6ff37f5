#pragma once
// Seeded fault draws (DESIGN.md sections 6, 10 and 14).
//
// The one decision rule behind the three fault injectors -- FaultInjector
// (tool runs), FarmChaos (worker processes) and NetChaos (serving
// connections): a uniform roll in [0, 1) is matched against cumulative
// probabilities, and bucket i wins when roll < p[0] + ... + p[i]. Each
// injector keeps only its own key (what a decision is a pure function of)
// and its own policy on top of the picked bucket.

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string_view>

#include "common/rng.hpp"

namespace mf {

/// The roll for one decision: a pure function of `seed` and `key`.
[[nodiscard]] inline double fault_roll(std::uint64_t seed,
                                       std::string_view key) {
  return Rng(task_seed(seed, key)).uniform();
}

/// Index of the first bucket whose cumulative probability exceeds `roll`,
/// or `probabilities.size()` when the roll lands past their sum (no
/// fault). The sum accumulates left to right.
[[nodiscard]] inline std::size_t fault_pick(
    double roll, std::initializer_list<double> probabilities) {
  double edge = 0.0;
  std::size_t bucket = 0;
  for (const double p : probabilities) {
    edge += p;
    if (roll < edge) return bucket;
    ++bucket;
  }
  return bucket;
}

/// Whether every probability is >= 0 and their sum is <= 1.
[[nodiscard]] inline bool fault_probabilities_valid(
    std::initializer_list<double> probabilities) {
  double sum = 0.0;
  for (const double p : probabilities) {
    if (!(p >= 0.0)) return false;
    sum += p;
  }
  return sum <= 1.0;
}

}  // namespace mf
