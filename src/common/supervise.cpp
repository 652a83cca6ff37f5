#include "common/supervise.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <filesystem>
#include <thread>

#include "common/atomic_file.hpp"

namespace mf {

using Clock = std::chrono::steady_clock;

pid_t spawn_in_own_group(const std::string& exe,
                         const std::vector<std::string>& args) {
  // Build argv before fork: only async-signal-safe calls may run between
  // fork and exec.
  std::vector<char*> argv;
  argv.reserve(args.size() + 2);
  argv.push_back(const_cast<char*>(exe.c_str()));
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    (void)::setpgid(0, 0);
#ifdef __linux__
    (void)::prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (::getppid() == 1) ::_exit(127);  // parent died before prctl took
#endif
    ::execv(exe.c_str(), argv.data());
    ::_exit(127);
  }
  (void)::setpgid(pid, pid);
  return pid;
}

void signal_group(pid_t pid, int signo) {
  if (::kill(-pid, signo) != 0) (void)::kill(pid, signo);
}

std::string describe_wait_status(int status) {
  if (WIFEXITED(status)) return "exit " + std::to_string(WEXITSTATUS(status));
  if (WIFSIGNALED(status)) return "signal " + std::to_string(WTERMSIG(status));
  return "status " + std::to_string(status);
}

double capped_backoff_ms(double base_ms, double cap_ms, int n) {
  return std::min(cap_ms, base_ms * std::ldexp(1.0, std::clamp(n - 1, 0, 62)));
}

HeartbeatWatch watch_heartbeat(std::string path) {
  HeartbeatWatch watch;
  if (!path.empty()) watch.content = read_file(path).value_or("");
  watch.path = std::move(path);
  watch.last_beat = Clock::now();
  return watch;
}

std::optional<double> kill_if_stale(HeartbeatWatch& watch, pid_t pid,
                                    double timeout_s) {
  if (watch.path.empty()) return std::nullopt;
  const Clock::time_point now = Clock::now();
  std::string beat = read_file(watch.path).value_or("");
  if (!beat.empty() && beat != watch.content) {
    watch.content = std::move(beat);
    watch.last_beat = now;
    return std::nullopt;
  }
  const double stale =
      std::chrono::duration<double>(now - watch.last_beat).count();
  if (stale <= timeout_s) return std::nullopt;
  signal_group(pid, SIGKILL);
  watch.last_beat = now;
  return stale;
}

void terminate_and_reap(const std::vector<pid_t>& pids, double grace_s) {
  std::vector<pid_t> alive;
  for (const pid_t pid : pids) {
    if (pid <= 0) continue;
    signal_group(pid, SIGTERM);
    alive.push_back(pid);
  }
  const Clock::time_point kill_at =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(grace_s));
  bool escalated = false;
  for (;;) {
    std::erase_if(alive, [](pid_t pid) {
      int status = 0;
      const pid_t got = ::waitpid(pid, &status, WNOHANG);
      return got == pid || (got < 0 && errno != EINTR);
    });
    if (alive.empty()) return;
    if (!escalated && Clock::now() >= kill_at) {
      escalated = true;
      for (const pid_t pid : alive) signal_group(pid, SIGKILL);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

std::string self_executable_path() {
#ifdef __linux__
  std::error_code ec;
  const std::filesystem::path exe =
      std::filesystem::read_symlink("/proc/self/exe", ec);
  if (!ec) return exe.string();
#endif
  return {};
}

}  // namespace mf
