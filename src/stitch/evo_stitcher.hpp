#pragma once
// Evolutionary stitcher engine (RapidLayout-style).
//
// A (mu + lambda) evolutionary search over placements: a population of
// footprint-legal placements evolves by elitist selection, position-adoption
// crossover, and legal-anchor mutation with a greedy accept bias. Every
// individual carries its own occupancy bitset and incremental HPWL engine
// (stitch/placement_state), so evaluating a mutation is O(move) -- the same
// cache structure that made the annealer fast.
//
// RapidLayout (PAPERS.md) showed this family beating SA on FPGA hard-block
// placement because crossover teleports whole sub-layouts instead of walking
// them cell by cell; here it is the fast alternative to the paper-faithful
// annealer rather than a replacement.
//
// Deterministic: one RNG seeded with opts.seed drives the entire run on a
// single thread; stitch() fans out multi-start restarts, never this engine.

#include "fabric/device.hpp"
#include "stitch/engine.hpp"
#include "stitch/macro.hpp"

namespace mf {

/// One evolutionary run for one configuration (restarts/jobs ignored;
/// `opts.seed` used directly). Population size from opts.evo_population;
/// move budget from opts.max_moves (0 = an SA-equivalent schedule budget,
/// moves_per_temp x temperature-step count, so "equal budget" comparisons
/// against SA hold by construction).
[[nodiscard]] StitchResult stitch_evo(const Device& device,
                                      const StitchProblem& problem,
                                      const StitchOptions& opts);

}  // namespace mf
