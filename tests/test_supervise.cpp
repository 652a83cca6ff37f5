// Process-supervision kernel (src/common/supervise): process groups, wait
// status text, SIGTERM -> grace -> SIGKILL teardown, the heartbeat hang
// detector, and the one capped backoff every retry loop shares. Children
// are real /bin/sh processes, so each case exercises genuine
// fork/exec/waitpid.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <csignal>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/supervise.hpp"

namespace {

using namespace mf;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_((fs::temp_directory_path() /
               ("mf_supervise_" + tag + "_" + std::to_string(::getpid())))
                  .string()) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (fs::path(path_) / name).string();
  }

 private:
  std::string path_;
};

pid_t spawn_sh(const std::string& script) {
  return spawn_in_own_group("/bin/sh", {"-c", script});
}

/// Blocking reap; the wait status.
int reap(pid_t pid) {
  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  return status;
}

bool reaped(pid_t pid) {
  int status = 0;
  return ::waitpid(pid, &status, WNOHANG) < 0 && errno == ECHILD;
}

TEST(Supervise, ChildLeadsItsOwnProcessGroup) {
  const pid_t pid = spawn_sh("sleep 30");
  ASSERT_GT(pid, 0);
  // The parent sets the group too, so it holds the moment spawn returns.
  EXPECT_EQ(::getpgid(pid), pid);
  EXPECT_NE(::getpgid(pid), ::getpgid(0));
  signal_group(pid, SIGKILL);
  EXPECT_EQ(describe_wait_status(reap(pid)), "signal 9");
}

TEST(Supervise, DescribesExitAndSignalDeaths) {
  EXPECT_EQ(describe_wait_status(reap(spawn_sh("exit 3"))), "exit 3");
  EXPECT_EQ(describe_wait_status(reap(spawn_sh("kill -TERM $$"))),
            "signal " + std::to_string(SIGTERM));
  // A failed exec is the child's exit 127.
  EXPECT_EQ(describe_wait_status(
                reap(spawn_in_own_group("/nonexistent/mf-child", {}))),
            "exit 127");
}

TEST(Supervise, TerminateEscalatesToSigkillAfterGrace) {
  TempDir dir("escalate");
  const std::string ready = dir.file("ready");
  const std::string got_term = dir.file("got_term");
  // The shell survives SIGTERM (the trap records it); only SIGKILL ends it.
  const pid_t pid = spawn_sh("exec 2>/dev/null; trap 'echo term > " +
                             got_term + "' TERM; echo up > " + ready +
                             "; while :; do sleep 0.05; done");
  ASSERT_GT(pid, 0);
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(10);
  while (!fs::exists(ready) && Clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(fs::exists(ready));

  const double grace_s = 0.3;
  const Clock::time_point start = Clock::now();
  terminate_and_reap({pid}, grace_s);
  const double took =
      std::chrono::duration<double>(Clock::now() - start).count();
  EXPECT_GE(took, grace_s);
  EXPECT_LT(took, grace_s + 5.0);
  EXPECT_TRUE(reaped(pid));
  EXPECT_EQ(read_file(got_term).value_or(""), "term\n");
}

TEST(Supervise, TerminateReapsCooperativeChildrenWithoutWaitingOutGrace) {
  const pid_t a = spawn_sh("sleep 30");
  const pid_t b = spawn_sh("sleep 30");
  const Clock::time_point start = Clock::now();
  terminate_and_reap({a, b, -1}, 30.0);
  const double took =
      std::chrono::duration<double>(Clock::now() - start).count();
  EXPECT_LT(took, 10.0);
  EXPECT_TRUE(reaped(a));
  EXPECT_TRUE(reaped(b));
  terminate_and_reap({a}, 30.0);  // already reaped: ECHILD counts as reaped
}

TEST(Supervise, HeartbeatFiresOncePerStaleWindowAndRearmsOnChange) {
  TempDir dir("heartbeat");
  const std::string path = dir.file("heartbeat");
  ASSERT_TRUE(atomic_write_file(path, "a"));  // left by an earlier child
  const auto age = [](HeartbeatWatch& watch) {
    watch.last_beat -= std::chrono::seconds(10);
  };

  const pid_t child = spawn_sh("sleep 30");
  ASSERT_GT(child, 0);
  HeartbeatWatch watch = watch_heartbeat(path);
  EXPECT_EQ(watch.content, "a");
  EXPECT_FALSE(kill_if_stale(watch, child, 1.0));  // inside the window

  // New content is a beat: the window restarts even though it had expired.
  ASSERT_TRUE(atomic_write_file(path, "b"));
  age(watch);
  EXPECT_FALSE(kill_if_stale(watch, child, 1.0));
  EXPECT_EQ(watch.content, "b");

  // Unchanged content past the window: one SIGKILL, then a fresh window.
  age(watch);
  const std::optional<double> stale = kill_if_stale(watch, child, 1.0);
  ASSERT_TRUE(stale);
  EXPECT_GE(*stale, 10.0);
  EXPECT_EQ(describe_wait_status(reap(child)), "signal 9");
  EXPECT_FALSE(kill_if_stale(watch, child, 1.0));

  // A disabled watch never fires; an emptied file is not a beat.
  const pid_t other = spawn_sh("sleep 30");
  ASSERT_GT(other, 0);
  HeartbeatWatch disabled = watch_heartbeat("");
  age(disabled);
  EXPECT_FALSE(kill_if_stale(disabled, other, 1.0));
  HeartbeatWatch emptied = watch_heartbeat(path);
  ASSERT_TRUE(atomic_write_file(path, ""));
  age(emptied);
  EXPECT_TRUE(kill_if_stale(emptied, other, 1.0));
  EXPECT_EQ(describe_wait_status(reap(other)), "signal 9");
}

TEST(Supervise, BackoffMatchesEveryCallersSchedule) {
  struct Row {
    const char* schedule;
    double base_ms;
    double cap_ms;
    int n;
    double want_ms;
  };
  // The farm and ToolRunner wait f(attempt); serve waits f(crashes + 1);
  // the client waits f(attempt) before its jitter.
  const Row rows[] = {
      {"farm default, attempt 1", 50.0, 2000.0, 1, 50.0},
      {"farm default, attempt 2", 50.0, 2000.0, 2, 100.0},
      {"farm default, attempt 6", 50.0, 2000.0, 6, 1600.0},
      {"farm default, attempt 7", 50.0, 2000.0, 7, 2000.0},
      {"farm test/bench, attempt 1", 5.0, 50.0, 1, 5.0},
      {"farm test/bench, attempt 4", 5.0, 50.0, 4, 40.0},
      {"farm test/bench, attempt 5", 5.0, 50.0, 5, 50.0},
      {"serve default, crash 1", 50.0, 2000.0, 2, 100.0},
      {"serve default, crash 2", 50.0, 2000.0, 3, 200.0},
      {"serve default, crash 5", 50.0, 2000.0, 6, 1600.0},
      {"serve default, crash 6", 50.0, 2000.0, 7, 2000.0},
      {"serve test/bench, crash 1", 10.0, 50.0, 2, 20.0},
      {"serve test/bench, crash 2", 10.0, 50.0, 3, 40.0},
      {"serve test/bench, crash 3", 10.0, 50.0, 4, 50.0},
      {"client default, attempt 1", 2.0, 250.0, 1, 2.0},
      {"client default, attempt 7", 2.0, 250.0, 7, 128.0},
      {"client default, attempt 8", 2.0, 250.0, 8, 250.0},
      {"client chaos test, attempt 4", 0.5, 5.0, 4, 4.0},
      {"client chaos test, attempt 5", 0.5, 5.0, 5, 5.0},
      {"client campaign/bench, attempt 5", 1.0, 20.0, 5, 16.0},
      {"client campaign/bench, attempt 6", 1.0, 20.0, 6, 20.0},
      {"tool runner default, attempt 1", 50.0, 2000.0, 1, 50.0},
      {"tool runner default, attempt 3", 50.0, 2000.0, 3, 200.0},
      {"tool runner capped test, attempt 1", 100.0, 150.0, 1, 100.0},
      {"tool runner capped test, attempt 2", 100.0, 150.0, 2, 150.0},
      {"tool runner capped test, attempt 3", 100.0, 150.0, 3, 150.0},
      {"below the first attempt", 50.0, 2000.0, 0, 50.0},
      {"huge attempt stays finite", 50.0, 1e300, INT_MAX,
       50.0 * std::ldexp(1.0, 62)},
  };
  for (const Row& row : rows) {
    EXPECT_EQ(capped_backoff_ms(row.base_ms, row.cap_ms, row.n), row.want_ms)
        << row.schedule;
  }
  EXPECT_EQ(capped_backoff_ms(50.0, 2000.0, INT_MAX), 2000.0);
}

}  // namespace
