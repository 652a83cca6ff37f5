#pragma once
// Process-supervision kernel (DESIGN.md section 10): the mechanics the farm
// supervisor (src/farm) and `serve --supervised` (src/srv) share, as plain
// functions. Each caller keeps its own policy: what to spawn, when to
// respawn, what a clean exit means.

#include <sys/types.h>

#include <chrono>
#include <optional>
#include <string>
#include <vector>

namespace mf {

/// Fork/exec `exe` with argv `exe, args...` as the leader of a new process
/// group. Returns the child's pid, or -1 when fork fails (errno says why).
/// A child whose exec fails exits 127.
pid_t spawn_in_own_group(const std::string& exe,
                         const std::vector<std::string>& args);

/// Send `signo` to the process group led by `pid`, or to `pid` alone when
/// the group is already gone.
void signal_group(pid_t pid, int signo);

/// "exit N", "signal N", or "status N" for a waitpid() status.
[[nodiscard]] std::string describe_wait_status(int status);

/// Delay before attempt `n` (n >= 1): min(cap_ms, base_ms * 2^(n-1)). The
/// exponent is clamped to [0, 62], so the result stays finite for any n.
[[nodiscard]] double capped_backoff_ms(double base_ms, double cap_ms, int n);

/// Hang detector state for one child's heartbeat file.
struct HeartbeatWatch {
  std::string path;  ///< "" disables the detector
  std::string content;
  std::chrono::steady_clock::time_point last_beat;
};

/// Start watching `path` for a child spawned now. The current content is
/// the baseline, so a file left behind by an earlier child is not a beat.
[[nodiscard]] HeartbeatWatch watch_heartbeat(std::string path);

/// One poll. Changed non-empty content is a beat and restarts the window.
/// When no beat came for more than `timeout_s`, SIGKILLs `pid`'s group,
/// restarts the window (one kill per stale window) and returns how many
/// seconds the heartbeat was stale; otherwise returns nullopt.
std::optional<double> kill_if_stale(HeartbeatWatch& watch, pid_t pid,
                                    double timeout_s);

/// SIGTERM every child's group, SIGKILL the groups still alive after
/// `grace_s`, and return once every pid is reaped. A pid that waitpid()
/// cannot wait for (ECHILD) counts as reaped.
void terminate_and_reap(const std::vector<pid_t>& pids, double grace_s);

/// Path of the running executable (/proc/self/exe); empty when it cannot be
/// resolved. The supervisors default their child binary to it.
[[nodiscard]] std::string self_executable_path();

}  // namespace mf
