#include "srv/supervised.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <thread>

#include "common/parse_num.hpp"
#include "common/supervise.hpp"
#include "srv/server.hpp"

namespace mf {
namespace {

using Clock = std::chrono::steady_clock;

void say(const SupervisedOptions& options, const char* fmt, ...) {
  if (options.quiet) return;
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
}

/// Fork/exec one daemon generation on the inherited listening descriptor
/// (every "{LISTEN_FD}" argument becomes its number).
pid_t spawn_child(const SupervisedOptions& options, int listen_fd,
                  std::string* error) {
  const std::string exe =
      options.child_exe.empty() ? self_executable_path() : options.child_exe;
  if (exe.empty()) {
    *error = "cannot resolve child executable";
    return -1;
  }
  std::vector<std::string> args;
  args.reserve(options.child_args.size());
  for (const std::string& arg : options.child_args) {
    args.push_back(arg == "{LISTEN_FD}" ? std::to_string(listen_fd) : arg);
  }
  const pid_t pid = spawn_in_own_group(exe, args);
  if (pid < 0) *error = std::strerror(errno);
  return pid;
}

}  // namespace

std::optional<std::string> supervised_options_error(
    const SupervisedOptions& o) {
  if (o.socket_path.empty()) return "supervised mode needs a socket path";
  if (o.child_args.empty()) return "supervised child args must not be empty";
  bool has_fd_slot = false;
  for (const std::string& arg : o.child_args) {
    if (arg == "{LISTEN_FD}") has_fd_slot = true;
  }
  if (!has_fd_slot) return "child args must carry a {LISTEN_FD} placeholder";
  if (!(o.heartbeat_timeout_s > 0.0)) return "heartbeat timeout must be > 0";
  if (!(o.backoff_base_ms > 0.0)) return "backoff base must be > 0 ms";
  if (o.backoff_cap_ms < o.backoff_base_ms) {
    return "backoff cap must be >= backoff base";
  }
  if (o.max_respawns < 0) return "max respawns must be >= 0";
  if (!(o.grace_seconds >= 0.0)) return "grace must be >= 0 seconds";
  if (!(o.poll_ms > 0.0)) return "poll must be > 0 ms";
  return std::nullopt;
}

SupervisedResult run_supervised(const SupervisedOptions& options) {
  SupervisedResult result;
  if (const std::optional<std::string> bad =
          supervised_options_error(options)) {
    result.error = *bad;
    return result;
  }
  std::string error;
  const int listen_fd = bind_unix_listener(options.socket_path, &error);
  if (listen_fd < 0) {
    result.error = error;
    return result;
  }
  // Every way out releases the listener and its socket file.
  const auto finish = [&](int exit_code) {
    ::close(listen_fd);
    ::unlink(options.socket_path.c_str());
    result.exit_code = exit_code;
    return result;
  };
  // Crash n waits min(cap, base * 2^n): step n + 1 of the shared schedule.
  const auto respawn_delay = [&](int crash_count) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(capped_backoff_ms(
            options.backoff_base_ms, options.backoff_cap_ms,
            crash_count + 1)));
  };

  pid_t child = -1;
  int crash_count = 0;
  Clock::time_point respawn_at = Clock::now();
  HeartbeatWatch heartbeat;

  for (;;) {
    if (options.cancel != nullptr && options.cancel->cancelled()) {
      if (child > 0) terminate_and_reap({child}, options.grace_seconds);
      return finish(130);
    }

    if (child <= 0 && Clock::now() >= respawn_at) {
      child = spawn_child(options, listen_fd, &error);
      if (child < 0) {
        // fork/exe failure counts against the same budget as a crash.
        ++crash_count;
        if (crash_count > options.max_respawns) {
          result.error = "spawn failed: " + error;
          return finish(2);
        }
        respawn_at = Clock::now() + respawn_delay(crash_count);
      } else {
        ++result.spawns;
        if (result.spawns > 1) ++result.respawns;
        heartbeat = watch_heartbeat(options.heartbeat_path);
        if (options.on_spawn) options.on_spawn(child);
        say(options, "[serve] daemon generation %ld up (pid %d)\n",
            result.spawns, static_cast<int>(child));
      }
    }

    if (child > 0) {
      int status = 0;
      if (::waitpid(child, &status, WNOHANG) == child) {
        if (WIFEXITED(status) &&
            (WEXITSTATUS(status) == 0 || WEXITSTATUS(status) == 130)) {
          // The daemon shut itself down on purpose (EOF / direct signal);
          // mirror its code rather than second-guessing it.
          return finish(WEXITSTATUS(status));
        }
        child = -1;
        ++crash_count;
        say(options, "[serve] daemon died (%s); respawn %d/%d\n",
            describe_wait_status(status).c_str(), crash_count,
            options.max_respawns == INT_MAX ? -1 : options.max_respawns);
        if (crash_count > options.max_respawns) {
          result.error = "daemon keeps dying; respawn budget exhausted";
          return finish(2);
        }
        respawn_at = Clock::now() + respawn_delay(crash_count);
        continue;
      }
      // Alive but wedged: the content stopped changing, so the child was
      // SIGKILLed and the reap branch above respawns it on a later poll.
      if (kill_if_stale(heartbeat, child, options.heartbeat_timeout_s)) {
        say(options, "[serve] heartbeat stale for %.1fs; killing pid %d\n",
            options.heartbeat_timeout_s, static_cast<int>(child));
        ++result.hung_kills;
      }
    }

    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(options.poll_ms));
  }
}

std::optional<int> maybe_run_serve_child(int argc, char** argv) {
  if (argc < 2 || std::string_view(argv[1]) != "--serve-child") {
    return std::nullopt;
  }
  if (argc != 5) {
    std::fprintf(stderr,
                 "usage: %s --serve-child <registry> <listen_fd> "
                 "<stats_json>\n",
                 argv[0]);
    return 2;
  }
  const std::optional<int> listen_fd = parse_number<int>(argv[3]);
  if (!listen_fd || *listen_fd < 0) {
    std::fprintf(stderr, "--serve-child: bad listen fd '%s'\n", argv[3]);
    return 2;
  }
  static CancelToken cancel;
  install_signal_cancel(&cancel);
  ServerOptions options;
  options.registry_dir = argv[2];
  options.listen_fd = *listen_fd;
  options.stats_json_path = argv[4];
  // Test/bench child: tight knobs so hot reload and the heartbeat snapshot
  // tick fast enough for campaigns to observe within seconds.
  options.coalesce.coalesce_us = 200.0;
  options.coalesce.max_batch = 32;
  options.coalesce.queue_capacity = 128;
  options.reload_poll_seconds = 0.05;
  options.stats_interval_seconds = 0.05;
  options.cancel = &cancel;
  EstimatorServer server(std::move(options));
  return server.run();
}

}  // namespace mf
