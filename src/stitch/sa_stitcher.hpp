#pragma once
// Simulated-annealing stitcher.
//
// Reproduces RapidWright's final stage: place every pre-implemented block on
// the device, connected copies close together, no overlaps. The cost is the
// half-perimeter wirelength of the inter-block nets plus a penalty per
// unplaced block (RW instead fails placement; parking lets us *count*
// unplaced blocks like the paper's Figure 5 does).
//
// The mechanism under study lives in the legality rules: a block is only
// placeable at anchors whose column-kind sequence matches its footprint
// (Section IV: relocation needs same-type columns), and blocks must not
// overlap. Looser CFs mean larger, more irregular footprints, fewer legal
// anchors, more rejected moves -- which is exactly why the paper's estimator
// speeds SA convergence 1.37x and cuts the final cost by 40%.
//
// The hot loop runs on an incremental cost engine (stitch/incremental_cost:
// per-net bounding boxes with boundary multiplicities) and a bitset
// occupancy grid (stitch/occupancy), with O(log n) random block selection
// (common/indexed_set) -- all bit-identical in behaviour to the naive
// reference engine, which `StitchOptions::reference_engine` keeps available
// for differential tests and benches.
//
// The option/result types live in stitch/engine.hpp; `stitch()` below is the
// front door that dispatches to the requested engine (SA stays the default,
// evo is stitch/evo_stitcher) and runs the multi-start restarts.

#include "stitch/engine.hpp"

namespace mf {

/// Solve a stitch problem with the engine selected by `opts.engine`.
/// restarts = 1 runs that engine once with `opts.seed` -- for the default
/// SA, the historical single-start annealer move for move; restarts = K > 1
/// keeps the best of K task_seed-derived runs, fanned out over `opts.jobs`.
StitchResult stitch(const Device& device, const StitchProblem& problem,
                    const StitchOptions& opts = {});

/// One SA run (restarts/jobs ignored; `opts.seed` used directly). This is
/// the SA engine `stitch()` runs once per restart.
StitchResult stitch_sa_single(const Device& device,
                              const StitchProblem& problem,
                              const StitchOptions& opts);

}  // namespace mf
