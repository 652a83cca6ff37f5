#pragma once
// Stitcher option / result types shared by the two placement engines:
//
//   * "sa"  -- the incremental simulated annealer (stitch/sa_stitcher), the
//              paper-faithful engine and the default;
//   * "evo" -- RapidLayout-style evolutionary search over placements
//              (stitch/evo_stitcher).
//
// Both obey the same contract -- same problem in, same StitchResult out --
// and a run is a pure function of (device, problem, options): no wall-clock
// or scheduling input feeds the walk. `stitch()` (stitch/sa_stitcher.hpp)
// dispatches to one of them, once per multi-start restart.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/cancel.hpp"
#include "fabric/device.hpp"
#include "stitch/macro.hpp"

#ifndef MF_JOBS_DEFAULT
#define MF_JOBS_DEFAULT 1
#endif

namespace mf {

/// The engines the stitcher can run.
enum class StitchEngine : std::uint8_t { Sa, Evo };

/// Parse an engine name ("sa", "evo"); nullopt on anything else. Callers
/// must fail fast on nullopt -- a silent SA fallback would hide typos in
/// --stitch-engine.
[[nodiscard]] std::optional<StitchEngine> stitch_engine_from_string(
    std::string_view name) noexcept;

struct StitchOptions {
  std::uint64_t seed = 99;
  double initial_temp = 0.0;  ///< 0 = auto (from initial cost scale)
  double cooling = 0.95;
  int moves_per_temp = 0;  ///< 0 = auto (10 x instances)
  double min_temp_ratio = 1e-4;  ///< stop when T < ratio * T0
  double unplaced_penalty = 0.0;  ///< 0 = auto (device half-perimeter x 4)
  int place_retry_every = 25;  ///< try to un-park an unplaced block this often
  /// Stop annealing after this many temperature steps without a >0.1% cost
  /// improvement (0 = anneal the full schedule). Easier problems quiesce
  /// sooner, which is what makes SA convergence a quality metric.
  int stagnation_temps = 15;
  /// Watchdog: hard iteration budget on the walk (0 = unbounded). When the
  /// budget trips, the walk stops and the best-so-far snapshot is restored,
  /// so an over-budget run degrades to its best intermediate placement
  /// instead of running unbounded. Deterministic (move-count based).
  long max_moves = 0;
  /// Watchdog: wall-clock budget in seconds (0 = unbounded). Same
  /// degradation semantics as max_moves, but non-deterministic -- meant for
  /// production service deadlines, not for reproducible experiments.
  double max_seconds = 0.0;
  /// Cooperative cancellation (common/cancel.hpp): polled by the same
  /// amortised watchdog check as max_seconds, with the same degradation
  /// semantics (stop, restore best-so-far, watchdog_fired = true). This
  /// subsumes max_seconds for end-to-end deadlines -- one token armed with
  /// set_deadline_seconds() bounds the whole flow, every restart included.
  const CancelToken* cancel = nullptr;
  /// Independent restarts (multi-start). 1 = one run seeded with `seed` --
  /// exactly the historical single-start behaviour, move for move. K > 1
  /// runs K independent restarts, restart k seeded with
  /// task_seed(seed, "restart:<k>"); the lowest final cost wins, ties going
  /// to the lowest k. Deterministic at any `jobs` value.
  int restarts = 1;
  /// Worker threads for the restart fan-out (1 = sequential, 0 = auto, i.e.
  /// hardware concurrency). Results are bit-identical at any value -- each
  /// restart is an isolated engine run with its own derived seed, written
  /// into a pre-sized slot.
  int jobs = MF_JOBS_DEFAULT;
  /// Run the pre-incremental reference cost engine inside SA: naive per-net
  /// bounding box rescans, a per-cell occupant grid, and O(instances)
  /// candidate scans per move. Kept for differential tests and the
  /// bench_stitch A/B; results are bit-identical to the default incremental
  /// engine, only slower. SA-only (evo ignores it).
  bool reference_engine = false;
  /// Which engine solves the problem.
  StitchEngine engine = StitchEngine::Sa;
  /// Evolutionary population size (>= 2). Individual 0 is the deterministic
  /// greedy placement; the rest are randomized.
  int evo_population = 12;
};

/// Fail-fast validation of the options. Returns a message on the first
/// violated constraint, nullopt when the options are usable. stitch() turns
/// a violation into an MF_CHECK failure; the CLI reports it and exits 2
/// before any flow work starts.
[[nodiscard]] std::optional<std::string> stitch_options_error(
    const StitchOptions& opts);

struct BlockPlacement {
  int col = -1;
  int row = -1;
  [[nodiscard]] bool placed() const noexcept { return col >= 0; }
};

struct StitchResult {
  std::vector<BlockPlacement> positions;  ///< per instance
  int unplaced = 0;
  double wirelength = 0.0;  ///< final HPWL cost (penalty excluded)
  double cost = 0.0;        ///< wirelength + unplaced penalty
  long total_moves = 0;
  long accepted = 0;
  long rejected = 0;
  long illegal = 0;  ///< moves discarded for overlap / no legal anchor
  /// First move index after which the cost stays within 1% of the final
  /// cost -- the convergence metric behind the paper's "1.37x faster".
  long converge_move = 0;
  /// True when a watchdog budget (max_moves / max_seconds / cancel) cut the
  /// run short; the result is the best placement seen up to that point.
  bool watchdog_fired = false;
  double seconds = 0.0;  ///< wall clock of the whole stitch (all restarts)
  /// Which restart produced this result (0 when a single run).
  int restart_index = 0;
  /// Moves summed over every restart (== total_moves for a single run).
  long restart_moves = 0;
  /// (move index, cost) samples for convergence plots; one sample per
  /// temperature step / generation, downsampled by stride doubling to at
  /// most ~4096 entries so pathological schedules cannot grow the trace
  /// unbounded. Always the WINNING restart's trace only.
  std::vector<std::pair<long, double>> cost_trace;
  /// Fraction of device slices covered by placed macro rectangles.
  double coverage = 0.0;
  /// Engine tag of the run that produced `positions` / `cost_trace` (the
  /// trace-text header carries the tag).
  std::string engine = "sa";
};

/// Serialize a result's cost trace to the versioned text form used by the
/// golden-trace regression fixtures:
///   macroflow-cost-trace v1 engine=<tag> samples=<n>
///   <move> <16-hex-digit IEEE-754 bits of cost>
/// The hex encoding keeps the bytes bit-exact across platforms.
[[nodiscard]] std::string trace_to_text(const StitchResult& result);

}  // namespace mf
