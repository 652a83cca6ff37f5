#include "stitch/evo_stitcher.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "stitch/placement_state.hpp"

namespace mf {
namespace {

/// Stop after this many generations without a >0.1% best-cost improvement
/// (mirrors the annealer's stagnation_temps idea at generation granularity).
constexpr int kStagnantGenerations = 24;
/// Probability a crossover child adopts the other parent's position for a
/// given instance.
constexpr double kAdoptProbability = 0.3;
/// Probability an uphill mutation is kept anyway (exploration noise on top
/// of the greedy accept bias).
constexpr double kUphillKeep = 0.05;

struct Individual {
  PlacementState state;
  double cost = 0.0;
};

/// SA-equivalent move budget: moves_per_temp x the cooling-schedule step
/// count, i.e. what a full (non-stagnating) anneal of the same options
/// would spend. Keeps "cost at equal budget" comparisons exact.
[[nodiscard]] long default_budget(const StitchOptions& opts,
                                  std::size_t instances) {
  const long per_temp = opts.moves_per_temp > 0
                            ? opts.moves_per_temp
                            : 10 * static_cast<long>(instances);
  long temps = 1;
  if (opts.cooling > 0.0 && opts.cooling < 1.0 && opts.min_temp_ratio > 0.0 &&
      opts.min_temp_ratio < 1.0) {
    temps = static_cast<long>(
        std::ceil(std::log(opts.min_temp_ratio) / std::log(opts.cooling)));
    temps = std::clamp<long>(temps, 1, 4096);
  }
  return per_temp * temps;
}

}  // namespace

StitchResult stitch_evo(const Device& device, const StitchProblem& problem,
                        const StitchOptions& opts) {
  Timer timer;
  const PlacementContext ctx(device, problem, opts);
  Rng rng(opts.seed);
  const std::size_t n = problem.instances.size();
  const int pop_size = std::max(2, opts.evo_population);
  const long budget =
      opts.max_moves > 0 ? opts.max_moves : default_budget(opts, n);

  StitchResult result;
  result.engine = "evo";

  // A mutation / adoption / placement attempt is one "move" -- the same
  // accounting granularity as an SA move attempt.
  auto charge = [&result]() -> long { return ++result.total_moves; };

  // -- initial population ---------------------------------------------------
  std::vector<Individual> pop;
  pop.reserve(static_cast<std::size_t>(pop_size));
  {
    // Individual 0 is deterministic: the annealer's greedy order -- a
    // quality floor the randomized individuals have to beat.
    PlacementState state(ctx);
    for (int inst : ctx.greedy_order()) {
      charge();
      const int hit = state.first_free_anchor(inst);
      if (hit < 0) {
        ++result.illegal;
        continue;
      }
      const auto& anchor = ctx.anchors_of(inst)[static_cast<std::size_t>(hit)];
      MF_CHECK(state.try_place(inst, anchor.first, anchor.second));
      ++result.accepted;
    }
    pop.push_back({std::move(state), 0.0});
    pop.back().cost = pop.back().state.cost();
  }
  for (int k = 1; k < pop_size; ++k) {
    // Randomized greedy: shuffled placement order, a few random anchor
    // samples per instance before falling back to the ordered scan. Each
    // individual sees a fresh slice of the one RNG stream.
    PlacementState state(ctx);
    std::vector<int> order(n);
    std::iota(order.begin(), order.end(), 0);
    rng.shuffle(order);
    for (int inst : order) {
      charge();
      const auto& candidates = ctx.anchors_of(inst);
      if (candidates.empty()) {
        ++result.illegal;
        continue;
      }
      bool placed = false;
      for (int attempt = 0; attempt < 8 && !placed; ++attempt) {
        const auto& [col, row] = candidates[rng.index(candidates.size())];
        placed = state.try_place(inst, col, row);
      }
      if (!placed) {
        const int hit = state.first_free_anchor(inst);
        if (hit >= 0) {
          const auto& anchor = candidates[static_cast<std::size_t>(hit)];
          MF_CHECK(state.try_place(inst, anchor.first, anchor.second));
          placed = true;
        }
      }
      if (placed) {
        ++result.accepted;
      } else {
        ++result.illegal;
      }
    }
    pop.push_back({std::move(state), 0.0});
    pop.back().cost = pop.back().state.cost();
  }

  auto best_cost_of = [&pop]() {
    double best = pop.front().cost;
    for (const Individual& ind : pop) best = std::min(best, ind.cost);
    return best;
  };

  double best_cost = best_cost_of();
  result.cost_trace.emplace_back(result.total_moves, best_cost);

  // -- generations ----------------------------------------------------------
  const std::size_t elite =
      std::max<std::size_t>(1, static_cast<std::size_t>(pop_size) / 2);
  double stagnant_best = best_cost;
  int stagnant = 0;
  std::vector<std::size_t> ranked(pop.size());
  while (result.total_moves < budget) {
    if ((opts.cancel != nullptr && opts.cancel->cancelled()) ||
        (opts.max_seconds > 0.0 && timer.seconds() >= opts.max_seconds)) {
      result.watchdog_fired = true;
      break;
    }

    // A budget that ran dry mid-generation can have shrunk the population.
    ranked.resize(pop.size());
    std::iota(ranked.begin(), ranked.end(), 0);
    std::sort(ranked.begin(), ranked.end(), [&](std::size_t a, std::size_t b) {
      if (pop[a].cost != pop[b].cost) return pop[a].cost < pop[b].cost;
      return a < b;
    });

    // Children first (they clone parents still sitting in `pop`), then the
    // survivors are moved out -- one vector swap per generation.
    auto tournament = [&]() -> std::size_t {
      const std::size_t a = ranked[rng.index(elite)];
      const std::size_t b = ranked[rng.index(elite)];
      return pop[a].cost <= pop[b].cost ? a : b;
    };
    std::vector<Individual> next;
    next.reserve(pop.size());
    for (std::size_t child = elite;
         child < pop.size() && result.total_moves < budget; ++child) {
      const std::size_t pa = tournament();
      const std::size_t pb = tournament();
      Individual kid = pop[pa];  // clone (grid + cost caches copy by value)
      const PlacementState& donor = pop[pb].state;
      // Crossover: adopt a random subset of the donor's positions when the
      // spot is free -- teleporting sub-layouts between parents, the move
      // class SA lacks.
      for (std::size_t i = 0; i < n; ++i) {
        if (!rng.bernoulli(kAdoptProbability)) continue;
        const BlockPlacement& want = donor.positions()[i];
        if (!want.placed()) continue;
        const BlockPlacement& have = kid.state.positions()[i];
        if (have.placed() && have.col == want.col && have.row == want.row) {
          continue;
        }
        charge();
        const int inst = static_cast<int>(i);
        const bool ok = have.placed()
                            ? kid.state.try_move(inst, want.col, want.row)
                            : kid.state.try_place(inst, want.col, want.row);
        if (ok) {
          ++result.accepted;
        } else {
          ++result.illegal;
        }
        if (result.total_moves >= budget) break;
      }
      // Mutation: a few random legal-anchor moves with a greedy accept bias
      // (downhill always, uphill rarely); parked blocks get unpark tries.
      const long mutations =
          std::max<long>(1, static_cast<long>(n) / 8);
      for (long m = 0; m < mutations && result.total_moves < budget; ++m) {
        const int inst = static_cast<int>(rng.index(n));
        const auto& candidates = ctx.anchors_of(inst);
        if (candidates.empty()) continue;
        charge();
        const BlockPlacement old =
            kid.state.positions()[static_cast<std::size_t>(inst)];
        if (!old.placed()) {
          bool placed = false;
          for (int attempt = 0; attempt < 4 && !placed; ++attempt) {
            const auto& [col, row] = candidates[rng.index(candidates.size())];
            placed = kid.state.try_place(inst, col, row);
          }
          if (placed) {
            ++result.accepted;
          } else {
            ++result.illegal;
          }
          continue;
        }
        const auto& [col, row] = candidates[rng.index(candidates.size())];
        if (col == old.col && row == old.row) continue;
        const double before = kid.state.instance_cost(inst);
        if (!kid.state.try_move(inst, col, row)) {
          ++result.illegal;
          continue;
        }
        const double delta = kid.state.instance_cost(inst) - before;
        if (delta <= 0.0 || rng.bernoulli(kUphillKeep)) {
          ++result.accepted;
        } else {
          MF_CHECK(kid.state.try_move(inst, old.col, old.row));
          ++result.rejected;
        }
      }
      kid.cost = kid.state.cost();
      next.push_back(std::move(kid));
    }
    for (std::size_t s = 0; s < elite; ++s) {
      next.push_back(std::move(pop[ranked[s]]));
    }
    pop = std::move(next);

    best_cost = best_cost_of();
    result.cost_trace.emplace_back(result.total_moves, best_cost);
    if (best_cost < stagnant_best * 0.999) {
      stagnant_best = best_cost;
      stagnant = 0;
    } else if (++stagnant >= kStagnantGenerations) {
      break;
    }
  }

  // -- wrap-up --------------------------------------------------------------
  std::size_t winner = 0;
  for (std::size_t i = 1; i < pop.size(); ++i) {
    if (pop[i].cost < pop[winner].cost) winner = i;
  }
  PlacementState& final_state = pop[winner].state;
  final_state.greedy_fill();
  finalize_from_state(ctx, final_state, result);
  result.restart_moves = result.total_moves;
  result.seconds = timer.seconds();
  return result;
}

}  // namespace mf
