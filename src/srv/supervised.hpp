#pragma once
// Supervised self-healing mode for `macroflow serve`
// (DESIGN.md section 14).
//
// run_supervised() turns the daemon into a two-process tree on the shared
// supervision kernel (src/common/supervise.hpp: own process group,
// parent-death signal, capped backoff, heartbeat hang detection,
// SIGTERM -> grace -> SIGKILL teardown). What is serve's own is the policy:
//
//   supervisor: binds + owns the Unix-domain listening socket, spawns one
//               daemon child per generation, and respawns crashes;
//   child:      inherits the *listening* descriptor (the `{LISTEN_FD}`
//               placeholder in child_args is replaced with its number) and
//               serves on it via ServerOptions::listen_fd.
//
// The socket handoff is the availability trick: the listener -- and the
// socket file -- survive a daemon crash, so clients connecting during a
// respawn window just park in the listen backlog instead of getting
// ECONNREFUSED, and a ServeClient retry turns a kill -9 under load into
// nothing worse than a latency blip.
//
// The heartbeat is the child's stats-JSON snapshot, refreshed every stats
// interval (uptime_s alone guarantees the bytes change). A child that exits
// 0 (or 130 after the supervisor's own teardown) ends the supervision loop
// with that code; any other death is a crash and respawns until
// max_respawns.

#include <climits>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include <sys/types.h>

#include "common/cancel.hpp"

namespace mf {

struct SupervisedOptions {
  /// Socket the supervisor binds and keeps bound across child generations.
  std::string socket_path;
  /// Child executable; "" = this executable (/proc/self/exe).
  std::string child_exe;
  /// Child argv tail (argv[0] is the executable). Every element equal to
  /// "{LISTEN_FD}" is replaced by the inherited listening descriptor's
  /// number at spawn time.
  std::vector<std::string> child_args;
  /// File whose *content* the child must keep changing ("" disables the
  /// hang detector; exits are still handled).
  std::string heartbeat_path;
  double heartbeat_timeout_s = 10.0;
  double backoff_base_ms = 50.0;
  double backoff_cap_ms = 2000.0;
  /// Crash-respawn budget; exceeding it gives up with exit code 2.
  int max_respawns = INT_MAX;
  /// SIGTERM -> SIGKILL escalation window at teardown.
  double grace_seconds = 5.0;
  double poll_ms = 20.0;
  bool quiet = false;
  const CancelToken* cancel = nullptr;
  /// Test/bench hook: observes every spawned child pid (chaos campaigns
  /// SIGKILL the daemon through this).
  std::function<void(pid_t)> on_spawn;
};

struct SupervisedResult {
  /// CLI contract: the child's clean exit code (0), 130 when cancelled,
  /// 2 on supervisor failure or an exhausted respawn budget.
  int exit_code = 2;
  long spawns = 0;
  long respawns = 0;
  long hung_kills = 0;
  std::string error;
};

/// nullopt = valid, otherwise the reason (exit-2 contract).
std::optional<std::string> supervised_options_error(
    const SupervisedOptions& options);

SupervisedResult run_supervised(const SupervisedOptions& options);

/// Child-process entry for test and bench binaries: when argv is
///   <exe> --serve-child <registry_dir> <listen_fd> <stats_json_path>
/// runs a daemon on the inherited descriptor (fast coalesce/reload knobs,
/// SIGTERM-cancellable) and returns its exit code; nullopt otherwise, and
/// normal startup continues. Mirrors maybe_run_farm_worker()'s shape --
/// call it first in main(). The CLI does not use this hook: its supervised
/// child re-execs the full `serve ... --listen-fd N` command line.
[[nodiscard]] std::optional<int> maybe_run_serve_child(int argc, char** argv);

}  // namespace mf
