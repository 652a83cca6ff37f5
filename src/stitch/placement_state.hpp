#pragma once
// Placement machinery for the evolutionary stitcher engine.
//
// The evolutionary engine needs the same three ingredients the annealer
// keeps fused into its hot loop: the legal anchor lists per macro
// (footprint-compatible positions), the bitset occupancy grid, and the
// incremental HPWL engine so a single-block move costs O(move) instead of
// O(netlist). PlacementContext holds the immutable
// per-problem geometry (shared by every individual in a population);
// PlacementState is one mutable placement with cached cost -- value-copyable
// so evolutionary individuals can be cloned for crossover.

#include <utility>
#include <vector>

#include "fabric/device.hpp"
#include "stitch/engine.hpp"
#include "stitch/incremental_cost.hpp"
#include "stitch/macro.hpp"
#include "stitch/occupancy.hpp"

namespace mf {

/// Immutable per-problem geometry shared by every PlacementState: anchor
/// lists, the greedy placement order, and the unplaced-block penalty.
class PlacementContext {
 public:
  PlacementContext(const Device& device, const StitchProblem& problem,
                   const StitchOptions& opts);

  [[nodiscard]] const Device& device() const noexcept { return *device_; }
  [[nodiscard]] const StitchProblem& problem() const noexcept {
    return *problem_;
  }
  [[nodiscard]] double penalty() const noexcept { return penalty_; }

  [[nodiscard]] const Macro& macro_of(int instance) const {
    return problem_->macros[static_cast<std::size_t>(
        problem_->instances[static_cast<std::size_t>(instance)].macro)];
  }

  /// (col, row)-sorted legal anchors of the instance's macro.
  [[nodiscard]] const std::vector<std::pair<int, int>>& anchors_of(
      int instance) const {
    return anchors_[static_cast<std::size_t>(
        problem_->instances[static_cast<std::size_t>(instance)].macro)];
  }

  /// Instances in the annealer's greedy placement order: fewest legal
  /// anchors first (constrained blocks get first pick), then larger area,
  /// then lower index. Deterministic.
  [[nodiscard]] const std::vector<int>& greedy_order() const noexcept {
    return greedy_order_;
  }

 private:
  const Device* device_;
  const StitchProblem* problem_;
  std::vector<std::vector<std::pair<int, int>>> anchors_;  ///< per macro
  std::vector<int> greedy_order_;
  double penalty_ = 0.0;
};

/// One mutable placement over a PlacementContext, with O(move) cost
/// maintenance. Copyable: the grid and the incremental engine are plain
/// value types, so cloning an individual is a handful of vector copies.
class PlacementState {
 public:
  explicit PlacementState(const PlacementContext& ctx);

  [[nodiscard]] const std::vector<BlockPlacement>& positions() const noexcept {
    return positions_;
  }
  [[nodiscard]] int unplaced() const noexcept { return unplaced_; }
  [[nodiscard]] double wirelength() const { return cost_engine_.total(); }
  /// wirelength + penalty * unplaced -- the engines' objective.
  [[nodiscard]] double cost() const {
    return cost_engine_.total() + ctx_->penalty() * unplaced_;
  }
  /// Cached HPWL over the instance's nets (the term a move can change).
  [[nodiscard]] double instance_cost(int instance) const {
    return cost_engine_.instance_cost(instance);
  }

  /// True when the instance's footprint fits at (col, row) on the current
  /// grid, ignoring the instance's own cells if it is placed there (the
  /// probe lifts and restores them, hence non-const).
  [[nodiscard]] bool region_free(int instance, int col, int row);

  /// Place an unplaced instance; false when the region is occupied.
  bool try_place(int instance, int col, int row);

  /// Move a placed instance to (col, row); false (state unchanged) when the
  /// destination is occupied by another block. Self-overlap is legal.
  bool try_move(int instance, int col, int row);

  /// First free anchor of the instance in (col, row) order, or -1.
  [[nodiscard]] int first_free_anchor(int instance) const;

  /// Greedy post-pass: repeatedly try to place every parked block (largest
  /// area first, then lowest index) at its first free anchor until nothing
  /// more fits. Mirrors the annealer's final_fill.
  void greedy_fill();

 private:
  void fill_cells(int instance, int col, int row);
  void clear_cells(int instance, int col, int row);

  const PlacementContext* ctx_;
  OccupancyGrid grid_;
  IncrementalWirelength cost_engine_;
  std::vector<BlockPlacement> positions_;
  int unplaced_ = 0;
};

/// The evolutionary engine's wrap-up bookkeeping: fills positions/unplaced/
/// wirelength/cost/coverage/converge_move of `result` from the state and
/// the already-recorded cost_trace.
void finalize_from_state(const PlacementContext& ctx,
                         const PlacementState& state, StitchResult& result);

}  // namespace mf
