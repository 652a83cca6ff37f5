#include "stitch/placement_state.hpp"

#include <algorithm>
#include <numeric>

#include "common/check.hpp"

namespace mf {

PlacementContext::PlacementContext(const Device& device,
                                   const StitchProblem& problem,
                                   const StitchOptions& opts)
    : device_(&device), problem_(&problem) {
  anchors_.resize(problem.macros.size());
  for (std::size_t m = 0; m < problem.macros.size(); ++m) {
    const Macro& macro = problem.macros[m];
    anchors_[m] =
        compatible_anchors(device, macro.footprint, macro.pblock.row_lo);
    std::sort(anchors_[m].begin(), anchors_[m].end());
  }
  greedy_order_.resize(problem.instances.size());
  std::iota(greedy_order_.begin(), greedy_order_.end(), 0);
  std::sort(greedy_order_.begin(), greedy_order_.end(), [&](int a, int b) {
    const std::size_t ca = anchors_of(a).size();
    const std::size_t cb = anchors_of(b).size();
    if (ca != cb) return ca < cb;
    const long aa = macro_of(a).area();
    const long bb = macro_of(b).area();
    if (aa != bb) return aa > bb;  // big blocks first
    return a < b;
  });
  penalty_ = opts.unplaced_penalty > 0.0
                 ? opts.unplaced_penalty
                 : 4.0 * (device.num_columns() + device.rows());
}

PlacementState::PlacementState(const PlacementContext& ctx)
    : ctx_(&ctx),
      grid_(ctx.device().num_columns(), ctx.device().rows()),
      cost_engine_(ctx.problem()),
      positions_(ctx.problem().instances.size()),
      unplaced_(static_cast<int>(ctx.problem().instances.size())) {}

void PlacementState::fill_cells(int instance, int col, int row) {
  const Macro& macro = ctx_->macro_of(instance);
  grid_.fill(col, row, macro.footprint.width(), macro.footprint.height);
}

void PlacementState::clear_cells(int instance, int col, int row) {
  const Macro& macro = ctx_->macro_of(instance);
  grid_.clear(col, row, macro.footprint.width(), macro.footprint.height);
}

bool PlacementState::region_free(int instance, int col, int row) {
  const Macro& macro = ctx_->macro_of(instance);
  const int w = macro.footprint.width();
  const int h = macro.footprint.height;
  const BlockPlacement& p = positions_[static_cast<std::size_t>(instance)];
  if (!p.placed()) return grid_.region_free(col, row, w, h);
  // Self-overlap: lift the instance's own cells for the probe, then restore
  // (the grid is bit-identical on return).
  clear_cells(instance, p.col, p.row);
  const bool free = grid_.region_free(col, row, w, h);
  fill_cells(instance, p.col, p.row);
  return free;
}

bool PlacementState::try_place(int instance, int col, int row) {
  const auto i = static_cast<std::size_t>(instance);
  MF_CHECK(!positions_[i].placed());
  const Macro& macro = ctx_->macro_of(instance);
  if (!grid_.region_free(col, row, macro.footprint.width(),
                         macro.footprint.height)) {
    return false;
  }
  fill_cells(instance, col, row);
  cost_engine_.place(instance, col, row);
  positions_[i] = {col, row};
  --unplaced_;
  return true;
}

bool PlacementState::try_move(int instance, int col, int row) {
  const auto i = static_cast<std::size_t>(instance);
  const BlockPlacement old = positions_[i];
  MF_CHECK(old.placed());
  if (col == old.col && row == old.row) return true;
  const Macro& macro = ctx_->macro_of(instance);
  clear_cells(instance, old.col, old.row);
  if (!grid_.region_free(col, row, macro.footprint.width(),
                         macro.footprint.height)) {
    fill_cells(instance, old.col, old.row);
    return false;
  }
  fill_cells(instance, col, row);
  cost_engine_.place(instance, col, row);
  positions_[i] = {col, row};
  return true;
}

int PlacementState::first_free_anchor(int instance) const {
  const auto& candidates = ctx_->anchors_of(instance);
  const Macro& macro = ctx_->macro_of(instance);
  const int w = macro.footprint.width();
  const int h = macro.footprint.height;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (grid_.region_free(candidates[i].first, candidates[i].second, w, h)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

void PlacementState::greedy_fill() {
  bool progress = true;
  while (progress) {
    progress = false;
    std::vector<int> parked;
    for (std::size_t i = 0; i < positions_.size(); ++i) {
      if (!positions_[i].placed()) parked.push_back(static_cast<int>(i));
    }
    std::sort(parked.begin(), parked.end(), [&](int a, int b) {
      const long aa = ctx_->macro_of(a).area();
      const long bb = ctx_->macro_of(b).area();
      if (aa != bb) return aa > bb;
      return a < b;
    });
    for (int inst : parked) {
      const int hit = first_free_anchor(inst);
      if (hit < 0) continue;
      const auto& anchor =
          ctx_->anchors_of(inst)[static_cast<std::size_t>(hit)];
      MF_CHECK(try_place(inst, anchor.first, anchor.second));
      progress = true;
    }
  }
}

void finalize_from_state(const PlacementContext& ctx,
                         const PlacementState& state, StitchResult& result) {
  result.positions = state.positions();
  result.unplaced = state.unplaced();
  result.wirelength = state.wirelength();
  result.cost = state.cost();

  long covered = 0;
  for (std::size_t i = 0; i < result.positions.size(); ++i) {
    if (!result.positions[i].placed()) continue;
    const Macro& macro = ctx.macro_of(static_cast<int>(i));
    int clb_cols = 0;
    for (ColumnKind kind : macro.footprint.kinds) {
      if (is_clb(kind)) ++clb_cols;
    }
    covered += static_cast<long>(clb_cols) * macro.footprint.height;
  }
  result.coverage = static_cast<double>(covered) /
                    std::max(1, ctx.device().totals().slices);

  const double threshold = result.cost * 1.01 + 1e-9;
  result.converge_move = result.total_moves;
  for (const auto& [move, cost] : result.cost_trace) {
    if (cost <= threshold) {
      result.converge_move = move;
      break;
    }
  }
}

}  // namespace mf
