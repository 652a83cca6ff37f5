#pragma once
// Farm supervisor: spawn, watch, heal, merge (DESIGN.md section 10).
//
// run_farm() owns a fleet of worker *processes* (fork/exec of the same
// binary in --farm-worker mode) and a deterministic shard plan (the
// manifest). Workers are assigned shards dynamically -- an idle worker slot
// steals the next pending shard -- but shard *contents* are a pure function
// of the manifest, so the merged result is bit-identical to a
// single-process run regardless of scheduling, crashes, or respawns.
//
// Robustness model:
//   * crash death     -- nonzero exit or a fatal signal is detected by
//                        waitpid; the shard respawns after capped
//                        exponential backoff, resuming from its checkpoint;
//   * hang death      -- a worker whose heartbeat content stops changing
//                        for `hang_timeout_seconds` is SIGKILLed and
//                        treated as crashed;
//   * poison shards   -- a shard that burns `max_attempts` attempts is
//                        moved to quarantine/ with a .reason file and the
//                        farm *continues* (exit 2 at the end, merged output
//                        covers the surviving shards);
//   * cancellation    -- a tripped CancelToken (SIGINT via the CLI,
//                        --deadline-seconds) SIGTERMs every worker
//                        (cooperative checkpoint + exit 130), escalating to
//                        SIGKILL after a grace period; the whole tree obeys
//                        the 0/1/2/130 contract. Workers also carry a
//                        parent-death signal so a supervisor that dies
//                        uncleanly still tears the tree down;
//   * farm resume     -- re-running over the same directory (same plan)
//                        trusts completed shards' done markers and only
//                        works the remainder; a directory whose manifest
//                        differs from the requested plan is refused.

#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "farm/manifest.hpp"
#include "flow/ground_truth.hpp"

namespace mf {

struct FarmOptions {
  std::string dir;       ///< farm state directory (created if missing)
  FarmPlan plan;         ///< the work (persisted as the manifest)
  int workers = 2;       ///< concurrent worker processes
  int max_attempts = 3;  ///< per-shard crash budget before quarantine
  double hang_timeout_seconds = 60.0;  ///< heartbeat staleness threshold
  double backoff_base_ms = 50.0;       ///< respawn backoff: base * 2^(n-1)
  double backoff_cap_ms = 2000.0;
  double grace_seconds = 5.0;  ///< SIGTERM -> SIGKILL escalation window
  double poll_ms = 20.0;       ///< supervisor loop period
  /// Worker binary; empty = this executable (/proc/self/exe). The binary
  /// must call maybe_run_farm_worker() first in main().
  std::string worker_exe;
  const CancelToken* cancel = nullptr;
  bool quiet = false;  ///< suppress per-event progress lines on stdout
};

struct FarmResult {
  bool ok = false;         ///< every shard done and every merge written
  bool cancelled = false;  ///< torn down by the cancel token
  std::string error;       ///< fatal setup/merge failure (ok == false)

  int shards_total = 0;
  int shards_done = 0;
  int shards_quarantined = 0;
  int shards_resumed = 0;  ///< done markers trusted from a previous run
  long spawns = 0;         ///< worker processes launched (first runs + respawns)
  long respawns = 0;       ///< relaunches after a crash/hang
  long hung_killed = 0;    ///< workers SIGKILLed for heartbeat staleness

  long samples = 0;     ///< merged samples across all grid values
  long infeasible = 0;  ///< infeasible specs recorded by done shards
  ShardMergeStats merge;            ///< aggregated over grid values
  std::vector<std::string> merged_paths;
};

/// Run a farm to completion, cancellation, or fatal error.
FarmResult run_farm(const FarmOptions& options);

}  // namespace mf
