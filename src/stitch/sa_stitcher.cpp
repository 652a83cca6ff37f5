#include "stitch/sa_stitcher.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "common/indexed_set.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "stitch/evo_stitcher.hpp"
#include "stitch/incremental_cost.hpp"
#include "stitch/occupancy.hpp"

namespace mf {
namespace {

/// cost_trace cap: one sample per temperature step until the schedule gets
/// pathological, then stride-doubled so the trace never exceeds ~4k entries.
constexpr std::size_t kTraceCap = 4096;

/// Mutable SA state over one stitching run (one restart).
///
/// Two cost/grid engines share this walk, selected by
/// StitchOptions::reference_engine:
///   * incremental (default): cached per-net bounding boxes, a bitset
///     occupancy grid, and Fenwick order-statistics block selection;
///   * reference: the pre-incremental code -- naive per-net rescans, a
///     per-cell occupant grid, O(instances) candidate list rebuilds.
/// Both draw the same RNG sequence and compute bit-identical move deltas
/// (per-net min/max does not depend on how it is maintained), so they
/// produce bit-identical results; tests and bench_stitch rely on that.
class Annealer {
 public:
  Annealer(const Device& device, const StitchProblem& problem,
           const StitchOptions& opts)
      : device_(device),
        problem_(problem),
        opts_(opts),
        rng_(opts.seed),
        incremental_(!opts.reference_engine) {}

  StitchResult run() {
    timer_.restart();
    prepare();
    greedy_initial();
    anneal();
    final_fill();
    finish();
    result_.engine = "sa";
    result_.seconds = timer_.seconds();
    result_.restart_moves = result_.total_moves;
    return std::move(result_);
  }

 private:
  // -- setup ----------------------------------------------------------------
  void prepare() {
    if (incremental_) {
      bits_ = OccupancyGrid(device_.num_columns(), device_.rows());
      cost_engine_.emplace(problem_);
      placed_set_ = IndexedIdSet(problem_.instances.size());
      parked_set_ = IndexedIdSet(problem_.instances.size());
      for (std::size_t i = 0; i < problem_.instances.size(); ++i) {
        parked_set_.insert(static_cast<int>(i));
      }
    } else {
      grid_.assign(static_cast<std::size_t>(device_.num_columns()) *
                       static_cast<std::size_t>(device_.rows()),
                   -1);
      nets_of_.assign(problem_.instances.size(), {});
      for (std::size_t n = 0; n < problem_.nets.size(); ++n) {
        for (int inst : problem_.nets[n].instances) {
          nets_of_[static_cast<std::size_t>(inst)].push_back(
              static_cast<int>(n));
        }
      }
    }
    anchors_.resize(problem_.macros.size());
    anchor_runs_.resize(problem_.macros.size());
    for (std::size_t m = 0; m < problem_.macros.size(); ++m) {
      const Macro& macro = problem_.macros[m];
      anchors_[m] = compatible_anchors(device_, macro.footprint,
                                       macro.pblock.row_lo);
      // compatible_anchors already emits (col, row)-ascending; sorting here
      // is an idempotent guard so the binary-searched scan windows below
      // stay correct if a future anchor generator emits another order.
      std::sort(anchors_[m].begin(), anchors_[m].end());
      build_runs(static_cast<int>(m));
    }
    positions_.assign(problem_.instances.size(), BlockPlacement{});
    scan_cache_.assign(problem_.instances.size(), ScanCache{});
    unplaced_ = static_cast<int>(problem_.instances.size());
    if (opts_.unplaced_penalty > 0.0) {
      penalty_ = opts_.unplaced_penalty;
    } else {
      penalty_ = 4.0 * (device_.num_columns() + device_.rows());
    }
  }

  [[nodiscard]] const Macro& macro_of(int instance) const {
    return problem_.macros[static_cast<std::size_t>(
        problem_.instances[static_cast<std::size_t>(instance)].macro)];
  }

  [[nodiscard]] const std::vector<std::pair<int, int>>& anchors_of(
      int instance) const {
    return anchors_[static_cast<std::size_t>(
        problem_.instances[static_cast<std::size_t>(instance)].macro)];
  }

  // -- occupancy ------------------------------------------------------------
  [[nodiscard]] int& grid_at(int col, int row) {
    return grid_[static_cast<std::size_t>(col) *
                     static_cast<std::size_t>(device_.rows()) +
                 static_cast<std::size_t>(row)];
  }

  [[nodiscard]] bool region_free(int instance, int col, int row) {
    const Macro& macro = macro_of(instance);
    const int w = macro.footprint.width();
    const int h = macro.footprint.height;
    if (incremental_) return bits_.region_free(col, row, w, h);
    for (int c = col; c < col + w; ++c) {
      for (int r = row; r < row + h; ++r) {
        const int occupant = grid_at(c, r);
        if (occupant != -1 && occupant != instance) return false;
      }
    }
    return true;
  }

  /// Mark / unmark the instance's footprint cells without touching its
  /// recorded position (used to lift a block while probing destinations).
  void fill_cells(int instance, int col, int row) {
    const Macro& macro = macro_of(instance);
    if (incremental_) {
      bits_.fill(col, row, macro.footprint.width(), macro.footprint.height);
      return;
    }
    for (int c = col; c < col + macro.footprint.width(); ++c) {
      for (int r = row; r < row + macro.footprint.height; ++r) {
        grid_at(c, r) = instance;
      }
    }
  }

  void clear_cells(int instance, int col, int row) {
    const Macro& macro = macro_of(instance);
    if (incremental_) {
      bits_.clear(col, row, macro.footprint.width(), macro.footprint.height);
      return;
    }
    for (int c = col; c < col + macro.footprint.width(); ++c) {
      for (int r = row; r < row + macro.footprint.height; ++r) {
        grid_at(c, r) = -1;
      }
    }
  }

  /// Place the instance at (col, row). The caller has already cleared the
  /// old footprint cells when this is a move of a placed instance.
  void place(int instance, int col, int row) {
    fill_cells(instance, col, row);
    const auto i = static_cast<std::size_t>(instance);
    if (!positions_[i].placed()) {
      --unplaced_;
      if (incremental_) {
        parked_set_.erase(instance);
        placed_set_.insert(instance);
      }
    }
    if (incremental_) {
      cost_engine_->place(instance, col, row);
      ++occupancy_epoch_;
    }
    positions_[i] = {col, row};
  }

  void unplace(int instance) {
    const auto i = static_cast<std::size_t>(instance);
    const BlockPlacement& p = positions_[i];
    if (!p.placed()) return;
    clear_cells(instance, p.col, p.row);
    ++unplaced_;
    if (incremental_) {
      placed_set_.erase(instance);
      parked_set_.insert(instance);
      cost_engine_->unplace(instance);
      ++occupancy_epoch_;
    }
    positions_[i] = BlockPlacement{};
  }

  // -- cost -----------------------------------------------------------------
  [[nodiscard]] std::pair<double, double> center_of(int instance) const {
    const BlockPlacement& p = positions_[static_cast<std::size_t>(instance)];
    const Macro& macro = macro_of(instance);
    return {p.col + macro.footprint.width() / 2.0,
            p.row + macro.footprint.height / 2.0};
  }

  [[nodiscard]] double net_cost(int net) const {
    const BlockNet& bn = problem_.nets[static_cast<std::size_t>(net)];
    double c0 = 0.0;
    double c1 = 0.0;
    double r0 = 0.0;
    double r1 = 0.0;
    int count = 0;
    for (int inst : bn.instances) {
      if (!positions_[static_cast<std::size_t>(inst)].placed()) continue;
      const auto [cc, rr] = center_of(inst);
      if (count == 0) {
        c0 = c1 = cc;
        r0 = r1 = rr;
      } else {
        c0 = std::min(c0, cc);
        c1 = std::max(c1, cc);
        r0 = std::min(r0, rr);
        r1 = std::max(r1, rr);
      }
      ++count;
    }
    if (count < 2) return 0.0;
    return bn.weight * ((c1 - c0) + (r1 - r0));
  }

  [[nodiscard]] double full_wirelength() const {
    if (incremental_) return cost_engine_->total();
    double total = 0.0;
    for (std::size_t n = 0; n < problem_.nets.size(); ++n) {
      total += net_cost(static_cast<int>(n));
    }
    return total;
  }

  /// HPWL restricted to the instance's nets -- the cost term a move of this
  /// instance can change. Cached sum on the incremental engine, per-net
  /// rescans on the reference engine; bitwise equal either way.
  [[nodiscard]] double local_cost(int instance) const {
    if (incremental_) return cost_engine_->instance_cost(instance);
    double total = 0.0;
    for (int n : nets_of_[static_cast<std::size_t>(instance)]) {
      total += net_cost(n);
    }
    return total;
  }

  [[nodiscard]] int unplaced_count() const { return unplaced_; }

  // -- block selection ------------------------------------------------------
  /// k-th placed instance in ascending id order (the order the historical
  /// code materialised as a vector each move).
  [[nodiscard]] int placed_kth(std::size_t k) {
    if (incremental_) return placed_set_.kth(static_cast<int>(k));
    return placed_scratch_[k];
  }

  [[nodiscard]] std::size_t placed_size() {
    if (incremental_) return static_cast<std::size_t>(placed_set_.size());
    placed_scratch_.clear();
    for (std::size_t i = 0; i < positions_.size(); ++i) {
      if (positions_[i].placed()) placed_scratch_.push_back(static_cast<int>(i));
    }
    return placed_scratch_.size();
  }

  [[nodiscard]] int parked_kth(std::size_t k) {
    if (incremental_) return parked_set_.kth(static_cast<int>(k));
    return parked_scratch_[k];
  }

  [[nodiscard]] std::size_t parked_size() {
    if (incremental_) return static_cast<std::size_t>(parked_set_.size());
    parked_scratch_.clear();
    for (std::size_t i = 0; i < positions_.size(); ++i) {
      if (!positions_[i].placed()) parked_scratch_.push_back(static_cast<int>(i));
    }
    return parked_scratch_.size();
  }

  // -- initial placement ----------------------------------------------------
  void greedy_initial() {
    std::vector<int> order(problem_.instances.size());
    std::iota(order.begin(), order.end(), 0);
    // Anchor-constrained blocks first (BRAM/DSP users have few legal
    // positions -- give them first pick), then big blocks before small.
    auto anchor_count = [&](int inst) { return anchors_of(inst).size(); };
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const std::size_t ca = anchor_count(a);
      const std::size_t cb = anchor_count(b);
      if (ca != cb) return ca < cb;
      const long aa = macro_of(a).area();
      const long bb = macro_of(b).area();
      if (aa != bb) return aa > bb;  // big blocks first
      return a < b;
    });
    for (int inst : order) {
      const auto& candidates = anchors_of(inst);
      const int hit = first_free_anchor(inst, candidates.size());
      if (hit >= 0) {
        place(inst, candidates[static_cast<std::size_t>(hit)].first,
              candidates[static_cast<std::size_t>(hit)].second);
      }
    }
  }

  // -- annealing ------------------------------------------------------------
  void anneal() {
    wirelength_ = full_wirelength();
    double cost = wirelength_ + penalty_ * unplaced_count();
    const double t0 = opts_.initial_temp > 0.0
                          ? opts_.initial_temp
                          : 0.2 * (device_.num_columns() + device_.rows());
    const int moves_per_temp =
        opts_.moves_per_temp > 0
            ? opts_.moves_per_temp
            : 10 * static_cast<int>(problem_.instances.size());
    const double t_min = t0 * opts_.min_temp_ratio;

    record_trace(0, cost);
    double stagnant_best = cost;
    int stagnant_temps = 0;
    double best_cost = cost;
    std::vector<BlockPlacement> best_positions = positions_;
    for (double temp = t0; temp > t_min && !result_.watchdog_fired;
         temp *= opts_.cooling) {
      for (int k = 0; k < moves_per_temp; ++k) {
        // Watchdog: a budgeted anneal stops mid-schedule and degrades to
        // the best snapshot seen so far (restored below). The wall-clock and
        // cancel-token checks are amortised over 32 moves to keep the hot
        // loop cheap (the token's deadline path consults a clock too).
        if ((opts_.max_moves > 0 && result_.total_moves >= opts_.max_moves) ||
            (opts_.max_seconds > 0.0 && result_.total_moves % 32 == 0 &&
             timer_.seconds() >= opts_.max_seconds) ||
            (opts_.cancel != nullptr && result_.total_moves % 32 == 0 &&
             opts_.cancel->cancelled())) {
          result_.watchdog_fired = true;
          break;
        }
        ++result_.total_moves;
        if (opts_.place_retry_every > 0 &&
            result_.total_moves % opts_.place_retry_every == 0 &&
            try_unpark(cost)) {
          continue;
        }
        displace_move(temp, cost);
      }
      record_trace(result_.total_moves, cost);
#if !defined(NDEBUG)
      // Debug invariant: the cached incremental wirelength never drifts from
      // a from-scratch recompute (it is exact by construction).
      if (incremental_) {
        MF_CHECK(std::abs(cost_engine_->total() -
                          cost_engine_->full_recompute()) < 1e-6);
      }
#endif
      if (cost < best_cost) {
        best_cost = cost;
        best_positions = positions_;
      }
      // Quiescence detection: when the cost has not improved by more than
      // 0.1% for a while, further cooling is wasted annealing. Easier
      // placement problems (tighter macros, fewer illegal moves) quiesce
      // sooner -- the mechanism behind the paper's "converged 1.37x faster".
      // Only once every block is placed: while blocks are parked, progress
      // arrives in rare unpark events that a stagnation window would miss.
      if (opts_.stagnation_temps > 0 && unplaced_count() == 0) {
        if (cost < stagnant_best * 0.999) {
          stagnant_best = cost;
          stagnant_temps = 0;
        } else if (++stagnant_temps >= opts_.stagnation_temps) {
          break;
        }
      }
    }
    // Keep the best solution seen, not wherever the walk happened to stop.
    if (best_cost < cost - 1e-9) {
      restore(best_positions);
    }
  }

  /// Append one (move, cost) sample; when the trace hits the cap, drop every
  /// other retained sample and double the sampling stride. With sane
  /// schedules (< 4096 temperature steps) this never fires and the trace is
  /// exactly the historical one-sample-per-step record.
  void record_trace(long move, double cost) {
    if (trace_step_++ % trace_stride_ != 0) return;
    auto& trace = result_.cost_trace;
    trace.emplace_back(move, cost);
    if (trace.size() >= kTraceCap) {
      std::size_t keep = 0;
      for (std::size_t i = 0; i < trace.size(); i += 2) trace[keep++] = trace[i];
      trace.resize(keep);
      trace_stride_ *= 2;
    }
  }

  /// Rebuild the occupancy state and positions from a snapshot.
  void restore(const std::vector<BlockPlacement>& snapshot) {
    if (incremental_) {
      bits_.reset();
      cost_engine_->clear();
      placed_set_.clear();
      parked_set_.clear();
      for (std::size_t i = 0; i < positions_.size(); ++i) {
        parked_set_.insert(static_cast<int>(i));
      }
    } else {
      std::fill(grid_.begin(), grid_.end(), -1);
    }
    positions_.assign(positions_.size(), BlockPlacement{});
    unplaced_ = static_cast<int>(positions_.size());
    for (std::size_t i = 0; i < snapshot.size(); ++i) {
      if (snapshot[i].placed()) {
        place(static_cast<int>(i), snapshot[i].col, snapshot[i].row);
      }
    }
  }

  /// Group a macro's (col, row)-sorted anchor list into per-column runs so
  /// the ordered free-anchor scan can slide one row-occupancy test down each
  /// column instead of probing every anchor's full h-row footprint.
  void build_runs(int macro_index) {
    const auto& list = anchors_[static_cast<std::size_t>(macro_index)];
    auto& runs = anchor_runs_[static_cast<std::size_t>(macro_index)];
    runs.clear();
    std::size_t i = 0;
    while (i < list.size()) {
      AnchorRun run;
      run.begin = i;
      run.col = list[i].first;
      run.first_row = list[i].second;
      std::size_t j = i + 1;
      while (j < list.size() && list[j].first == run.col) ++j;
      run.end = j;
      run.stride = j - i > 1 ? list[i + 1].second - run.first_row : 1;
      run.uniform = run.stride > 0;
      for (std::size_t k = i + 1; run.uniform && k < j; ++k) {
        run.uniform = list[k].second - list[k - 1].second == run.stride;
      }
      runs.push_back(run);
      i = j;
    }
  }

  /// First free anchor of `instance` among candidates[0, end), in (col, row)
  /// order -- the compaction / fill scan. Returns the index or -1.
  ///
  /// The incremental engine walks the column runs with a sliding count of
  /// consecutive unblocked rows: anchor (col, s) is free exactly when the h
  /// rows [s, s+h) each have the footprint's column span free, i.e. when the
  /// run of free rows ending at s+h-1 is >= h. Visiting rows in ascending
  /// order yields the same first hit as probing every anchor's footprint,
  /// with one O(words) row test per row instead of h per anchor.
  [[nodiscard]] int first_free_anchor(int instance, std::size_t end) {
    const auto& candidates = anchors_of(instance);
    if (!incremental_) {
      for (std::size_t i = 0; i < end; ++i) {
        if (region_free(instance, candidates[i].first, candidates[i].second)) {
          return static_cast<int>(i);
        }
      }
      return -1;
    }
    // Negative-result memoization. Within one occupancy epoch (no committed
    // place/unplace since), the scan is a pure function of (instance, end):
    // the instance's own placement state -- lifted during compaction probes,
    // absent during unpark probes -- is itself fixed for the epoch. A failed
    // scan over [0, e) therefore stays failed for every end <= e until the
    // epoch advances. On a crowded device almost every scan fails and the
    // epoch advances only on accepted moves, so this skips nearly all of
    // them.
    if (scan_known_failed(instance, end)) return -1;
    ScanCache& cache = scan_cache_[static_cast<std::size_t>(instance)];
    const int hit = scan_free_anchor(instance, end);
    if (hit < 0) {
      if (cache.epoch != occupancy_epoch_) {
        cache.epoch = occupancy_epoch_;
        cache.failed_end = end;
      } else {
        cache.failed_end = std::max(cache.failed_end, end);
      }
    }
    return hit;
  }

  /// True when the memo proves the ordered scan over [0, end) fails at the
  /// current occupancy epoch.
  [[nodiscard]] bool scan_known_failed(int instance, std::size_t end) const {
    const ScanCache& cache = scan_cache_[static_cast<std::size_t>(instance)];
    return cache.epoch == occupancy_epoch_ && end <= cache.failed_end;
  }

  /// The uncached ordered scan behind first_free_anchor (incremental mode).
  [[nodiscard]] int scan_free_anchor(int instance, std::size_t end) {
    const auto& candidates = anchors_of(instance);
    const Macro& macro = macro_of(instance);
    const int w = macro.footprint.width();
    const int h = macro.footprint.height;
    const auto& runs = anchor_runs_[static_cast<std::size_t>(
        problem_.instances[static_cast<std::size_t>(instance)].macro)];
    for (const AnchorRun& run : runs) {
      if (run.begin >= end) break;
      const std::size_t last = std::min(run.end, end);
      if (!run.uniform) {
        for (std::size_t i = run.begin; i < last; ++i) {
          if (bits_.region_free(candidates[i].first, candidates[i].second, w,
                                h)) {
            return static_cast<int>(i);
          }
        }
        continue;
      }
      const int last_row = candidates[last - 1].second;
      int free_rows = 0;
      for (int r = run.first_row; r <= last_row + h - 1; ++r) {
        free_rows = bits_.region_free(run.col, r, w, 1) ? free_rows + 1 : 0;
        if (free_rows < h) continue;
        const int offset = r - h + 1 - run.first_row;
        if (offset % run.stride != 0) continue;
        return static_cast<int>(run.begin) + offset / run.stride;
      }
    }
    return -1;
  }

  /// Attempt to place a parked block; always accepted when legal (the
  /// penalty dwarfs any wirelength increase). Mostly samples random anchors
  /// (cheap); every few calls it scans the instance's full anchor list so a
  /// lone remaining hole is found eventually.
  bool try_unpark(double& cost) {
    const std::size_t parked = parked_size();
    if (parked == 0) return false;
    const int inst = parked_kth(rng_.index(parked));
    const auto& candidates = anchors_of(inst);
    if (candidates.empty()) return false;

    auto place_at = [&](int col, int row) {
      const double before = local_cost(inst);
      place(inst, col, row);
      cost += local_cost(inst) - before - penalty_;
      ++result_.accepted;
    };
    for (int attempt = 0; attempt < 10; ++attempt) {
      const auto& [col, row] = candidates[rng_.index(candidates.size())];
      if (!region_free(inst, col, row)) continue;
      place_at(col, row);
      return true;
    }
    if (++unpark_failures_ % 8 == 0) {
      const int hit = first_free_anchor(inst, candidates.size());
      if (hit >= 0) {
        place_at(candidates[static_cast<std::size_t>(hit)].first,
                 candidates[static_cast<std::size_t>(hit)].second);
        return true;
      }
    }
    ++result_.illegal;
    return true;  // consumed the move
  }

  /// Post-anneal greedy fill: repeatedly scan every parked block's full
  /// anchor list (largest blocks first) until no more fit. RW's stitcher
  /// ends the same way -- whatever still fits is placed, the rest is
  /// reported unplaced (Figure 5's counts).
  void final_fill() {
    bool progress = true;
    while (progress) {
      progress = false;
      std::vector<int> parked;
      for (std::size_t i = 0; i < positions_.size(); ++i) {
        if (!positions_[i].placed()) parked.push_back(static_cast<int>(i));
      }
      std::sort(parked.begin(), parked.end(), [&](int a, int b) {
        return macro_of(a).area() > macro_of(b).area();
      });
      for (int inst : parked) {
        const auto& candidates = anchors_of(inst);
        const int hit = first_free_anchor(inst, candidates.size());
        if (hit < 0) continue;
        place(inst, candidates[static_cast<std::size_t>(hit)].first,
              candidates[static_cast<std::size_t>(hit)].second);
        progress = true;
      }
    }
  }

  void displace_move(double temp, double& cost) {
    const std::size_t placed = placed_size();
    if (placed == 0) return;
    const int inst = placed_kth(rng_.index(placed));
    const auto& candidates = anchors_of(inst);
    if (candidates.empty()) return;

    // 1-in-5 moves are compaction attempts: try the lowest-index (leftmost)
    // free anchor, which keeps free space contiguous instead of fragmenting
    // it across the fabric. The rest are uniform random displacements.
    int col = -1;
    int row = -1;
    const BlockPlacement old = positions_[static_cast<std::size_t>(inst)];
    if (rng_.index(5) == 0) {
      // The anchor list is (col, row)-sorted, so the candidates strictly
      // left of / below the current anchor are exactly [0, lower_bound) --
      // a binary-searched window instead of a scan-until-current walk.
      const std::size_t end = static_cast<std::size_t>(
          std::lower_bound(candidates.begin(), candidates.end(),
                           std::make_pair(old.col, old.row)) -
          candidates.begin());
      // When the memo already knows the lifted scan fails this epoch, skip
      // the lift itself -- the grid round-trip is the expensive part.
      if (incremental_ && scan_known_failed(inst, end)) {
        ++result_.illegal;
        return;
      }
      clear_cells(inst, old.col, old.row);
      const int hit = first_free_anchor(inst, end);
      if (hit >= 0) {
        col = candidates[static_cast<std::size_t>(hit)].first;
        row = candidates[static_cast<std::size_t>(hit)].second;
      }
      fill_cells(inst, old.col, old.row);
      if (col < 0) {
        ++result_.illegal;
        return;
      }
    } else {
      const auto& pick = candidates[rng_.index(candidates.size())];
      col = pick.first;
      row = pick.second;
    }
    if (col == old.col && row == old.row) return;

    // Lift the block so self-overlap does not block the move -- but only
    // when the old and new rectangles can actually intersect; a disjoint
    // destination probes identically on the unlifted grid, saving the
    // clear/fill round-trip on the (common) illegal outcome.
    const Macro& macro = macro_of(inst);
    const int w = macro.footprint.width();
    const int h = macro.footprint.height;
    const bool lift = !incremental_ || (col < old.col + w && old.col < col + w &&
                                        row < old.row + h && old.row < row + h);
    if (lift) {
      clear_cells(inst, old.col, old.row);
      if (!region_free(inst, col, row)) {
        fill_cells(inst, old.col, old.row);
        ++result_.illegal;
        return;
      }
    } else {
      if (!region_free(inst, col, row)) {
        ++result_.illegal;
        return;
      }
      clear_cells(inst, old.col, old.row);
    }
    const double before = local_cost(inst);
    place(inst, col, row);
    const double delta = local_cost(inst) - before;
    if (delta <= 0.0 || rng_.uniform() < std::exp(-delta / temp)) {
      cost += delta;
      ++result_.accepted;
    } else {
      clear_cells(inst, col, row);
      place(inst, old.col, old.row);
      ++result_.rejected;
    }
  }

  // -- wrap-up --------------------------------------------------------------
  void finish() {
    wirelength_ = full_wirelength();
    cost_ = wirelength_ + penalty_ * unplaced_count();
    result_.positions = positions_;
    result_.unplaced = unplaced_count();
    result_.wirelength = wirelength_;
    result_.cost = cost_;

    long covered = 0;
    for (std::size_t i = 0; i < positions_.size(); ++i) {
      if (!positions_[i].placed()) continue;
      const Macro& macro = macro_of(static_cast<int>(i));
      int clb_cols = 0;
      for (ColumnKind kind : macro.footprint.kinds) {
        if (is_clb(kind)) ++clb_cols;
      }
      covered += static_cast<long>(clb_cols) * macro.footprint.height;
    }
    result_.coverage = static_cast<double>(covered) /
                       std::max(1, device_.totals().slices);

    // Convergence: first trace sample whose cost is within 1% of the final.
    const double threshold = result_.cost * 1.01 + 1e-9;
    result_.converge_move = result_.total_moves;
    for (const auto& [move, cost] : result_.cost_trace) {
      if (cost <= threshold) {
        result_.converge_move = move;
        break;
      }
    }
  }

  const Device& device_;
  const StitchProblem& problem_;
  const StitchOptions& opts_;
  Rng rng_;
  Timer timer_;
  const bool incremental_;

  // Incremental engine state.
  OccupancyGrid bits_;
  std::optional<IncrementalWirelength> cost_engine_;
  IndexedIdSet placed_set_;
  IndexedIdSet parked_set_;

  // Reference engine state.
  std::vector<int> grid_;
  std::vector<std::vector<int>> nets_of_;
  std::vector<int> placed_scratch_;
  std::vector<int> parked_scratch_;

  /// One maximal same-column slice of a macro's sorted anchor list. When the
  /// rows step by a uniform stride the free-anchor scan slides down the
  /// column; otherwise it falls back to per-anchor footprint probes.
  struct AnchorRun {
    std::size_t begin = 0, end = 0;  ///< index window into the anchor list
    int col = 0;
    int first_row = 0;
    int stride = 1;  ///< row step between consecutive anchors (uniform runs)
    bool uniform = true;
  };

  /// Per-instance memo of a failed ordered anchor scan, valid for one
  /// occupancy epoch (see first_free_anchor).
  struct ScanCache {
    long epoch = -1;
    std::size_t failed_end = 0;  ///< no free anchor in [0, failed_end)
  };

  std::vector<std::vector<std::pair<int, int>>> anchors_;  ///< per macro
  std::vector<std::vector<AnchorRun>> anchor_runs_;        ///< per macro
  std::vector<ScanCache> scan_cache_;                      ///< per instance
  long occupancy_epoch_ = 0;  ///< bumped on every committed place / unplace
  std::vector<BlockPlacement> positions_;
  int unplaced_ = 0;
  long unpark_failures_ = 0;
  long trace_step_ = 0;
  long trace_stride_ = 1;
  double penalty_ = 0.0;
  double wirelength_ = 0.0;
  double cost_ = 0.0;
  StitchResult result_;
};

}  // namespace

StitchResult stitch_sa_single(const Device& device,
                              const StitchProblem& problem,
                              const StitchOptions& opts) {
  Annealer annealer(device, problem, opts);
  return annealer.run();
}

StitchResult stitch(const Device& device, const StitchProblem& problem,
                    const StitchOptions& opts) {
  MF_CHECK(!problem.instances.empty());
  for (const BlockInstance& inst : problem.instances) {
    MF_CHECK(inst.macro >= 0 &&
             static_cast<std::size_t>(inst.macro) < problem.macros.size());
  }
  if (const auto error = stitch_options_error(opts)) {
    MF_CHECK_MSG(false, *error);
  }
  auto run_one = [&](std::uint64_t seed) {
    StitchOptions one = opts;
    one.seed = seed;
    return opts.engine == StitchEngine::Evo
               ? stitch_evo(device, problem, one)
               : stitch_sa_single(device, problem, one);
  };
  if (opts.restarts == 1) return run_one(opts.seed);

  // Multi-start: restart k is an isolated run seeded with
  // task_seed(seed, "restart:<k>") that writes a pre-sized slot, and the
  // lowest cost wins with ties to the lowest k -- so the result is
  // bit-identical at any `jobs` value.
  Timer timer;
  std::vector<StitchResult> runs(static_cast<std::size_t>(opts.restarts));
  parallel_for_each(opts.jobs, runs.size(), [&](std::size_t k) {
    runs[k] = run_one(task_seed(opts.seed, "restart:" + std::to_string(k)));
  });
  std::size_t best = 0;
  long all_moves = 0;
  for (std::size_t k = 0; k < runs.size(); ++k) {
    all_moves += runs[k].total_moves;
    if (runs[k].cost < runs[best].cost) best = k;
  }
  StitchResult result = std::move(runs[best]);
  result.restart_index = static_cast<int>(best);
  result.restart_moves = all_moves;
  result.seconds = timer.seconds();
  return result;
}

}  // namespace mf
