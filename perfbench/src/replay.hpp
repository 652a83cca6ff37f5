#pragma once
// Outside-in replays of the library's CF searches for traced runs.
//
// find_min_cf and seeded_cf_search are rebuilt here from the public calls
// they make -- generate_pblock, then place_in_pblock with the routability
// check off, then estimate_routability on its placement -- so each call gets
// its own span and counters. The replay must reach the same verdicts as the
// library search; the workloads compare the two and count any difference as
// a failed op.

#include <string>

#include "bench.hpp"
#include "core/cf_search.hpp"

namespace bench {

/// Counts made at the oracle's layer boundaries over a traced op set.
struct OracleCounters {
  long searches = 0;
  long first_run_ok = 0;  ///< searches whose first tool run was feasible
  long tool_runs = 0;
  long pblock_calls = 0;
  long pblock_distinct = 0;  ///< distinct rectangles per search, summed
  long pack_calls = 0;
  long route_calls = 0;
  long fail_carry = 0;
  long fail_lut = 0;
  long fail_ff = 0;
  long fail_mslice = 0;
  long fail_hard = 0;  ///< BRAM/DSP capacity, out-of-bounds PBlock
  long fail_other = 0;
  long fail_congestion = 0;

  void add_metrics(Report& report) const;
};

struct SearchOutcome {
  bool found = false;
  double cf = 0.0;
  int tool_runs = 0;
  bool first_run_success = false;
  mf::PBlock pblock;
  mf::PlaceResult place;
};

/// Replay of find_min_cf (upward sweep with PBlock dedupe).
SearchOutcome replay_min_cf(Tracer* tracer, OracleCounters& counters,
                            const mf::Module& module,
                            const mf::ResourceReport& report,
                            const mf::ShapeReport& shape,
                            const mf::Device& device,
                            const mf::CfSearchOptions& opts);

/// Replay of seeded_cf_search (run at the seed, +0.1 steps, refine).
SearchOutcome replay_seeded(Tracer* tracer, OracleCounters& counters,
                            const mf::Module& module,
                            const mf::ResourceReport& report,
                            const mf::ShapeReport& shape,
                            const mf::Device& device, double seed_cf,
                            const mf::CfSearchOptions& opts);

}  // namespace bench
