#include "farm/supervisor.hpp"

#include <sys/wait.h>

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <utility>

#include "common/atomic_file.hpp"
#include "common/fault_draw.hpp"
#include "common/supervise.hpp"
#include "farm/worker.hpp"
#include "flow/serialize.hpp"

namespace mf {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

enum class ShardState : std::uint8_t {
  Pending,
  Backoff,
  Running,
  Done,
  Quarantined,
};

struct Shard {
  ShardState state = ShardState::Pending;
  int attempt = 0;  ///< index of the next (or currently running) attempt
  pid_t pid = -1;
  HeartbeatWatch heartbeat;    ///< hang detector for the running attempt
  Clock::time_point ready_at;  ///< backoff expiry
  std::string last_death;      ///< human-readable cause of the last crash
};

void say(const FarmOptions& options, const char* fmt, ...) {
  if (options.quiet) return;
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stdout, fmt, args);
  va_end(args);
  std::fflush(stdout);
}

/// Move every artifact of a poison shard out of shards/ and record why it
/// was given up on. The merge treats the shard as an empty sample list, so
/// the farm's output covers everything the healthy shards produced.
bool quarantine_shard(const std::string& dir, int shard,
                      const std::string& reason) {
  const fs::path qdir = farm_quarantine_dir(dir);
  std::error_code ec;
  fs::create_directories(qdir, ec);
  if (ec) return false;
  const std::string paths[] = {
      farm_shard_gt_path(dir, shard),
      farm_shard_infeasible_path(dir, shard),
      farm_shard_heartbeat_path(dir, shard),
      farm_shard_done_path(dir, shard),
  };
  for (const std::string& from : paths) {
    std::error_code move_ec;
    if (fs::exists(from, move_ec)) {
      fs::rename(from, qdir / fs::path(from).filename(), move_ec);
    }
  }
  return atomic_write_file(
      (qdir / (farm_shard_stem(shard) + ".reason")).string(), reason + "\n");
}

std::string quarantine_reason_path(const std::string& dir, int shard) {
  return (fs::path(farm_quarantine_dir(dir)) /
          (farm_shard_stem(shard) + ".reason"))
      .string();
}

/// Mark a crash: either schedule a backoff respawn or quarantine the shard.
void handle_death(const FarmOptions& options, FarmResult& result, int index,
                  Shard& shard, const std::string& cause) {
  shard.pid = -1;
  shard.last_death = cause;
  shard.attempt += 1;
  if (shard.attempt >= options.max_attempts) {
    shard.state = ShardState::Quarantined;
    result.shards_quarantined += 1;
    const std::string reason =
        "gave up after " + std::to_string(shard.attempt) +
        " attempts; last death: " + cause;
    (void)quarantine_shard(options.dir, index, reason);
    say(options, "[farm] shard %d quarantined (%s)\n", index, cause.c_str());
    return;
  }
  const double delay = capped_backoff_ms(
      options.backoff_base_ms, options.backoff_cap_ms, shard.attempt);
  result.respawns += 1;
  shard.state = ShardState::Backoff;
  shard.ready_at =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(delay));
  say(options, "[farm] shard %d died (%s); respawning attempt %d in %.0fms\n",
      index, cause.c_str(), shard.attempt, delay);
}

/// Merge every grid block's done shards into its dataset file and fold the
/// totals into `result`. Quarantined shards contribute empty lists, keeping
/// shard-index alignment (and the lowest-shard-wins dedup rule) intact.
bool merge_farm(const FarmOptions& options, const FarmManifest& manifest,
                const std::vector<Shard>& shards, FarmResult& result) {
  const std::vector<GenSpec> specs = manifest.specs();
  std::vector<std::string> order;
  order.reserve(specs.size());
  for (const GenSpec& spec : specs) order.push_back(spec.name);

  const int grid_size = static_cast<int>(manifest.plan().grid.size());
  for (int grid = 0; grid < grid_size; ++grid) {
    std::vector<std::vector<LabeledModule>> shard_samples;
    shard_samples.reserve(
        static_cast<std::size_t>(manifest.plan().shards_per_grid));
    for (int local = 0; local < manifest.plan().shards_per_grid; ++local) {
      const int shard = grid * manifest.plan().shards_per_grid + local;
      if (shards[static_cast<std::size_t>(shard)].state !=
          ShardState::Done) {
        shard_samples.emplace_back();
        continue;
      }
      std::optional<std::vector<LabeledModule>> samples =
          load_ground_truth(farm_shard_gt_path(options.dir, shard));
      if (!samples) {
        result.error = "shard " + std::to_string(shard) +
                       " is marked done but its ground-truth file is "
                       "missing or damaged";
        return false;
      }
      shard_samples.push_back(std::move(*samples));
      if (const std::optional<std::string> text =
              read_file(farm_shard_infeasible_path(options.dir, shard))) {
        if (const auto names = infeasible_from_text(*text)) {
          result.infeasible += static_cast<long>(names->size());
        }
      }
    }

    ShardMergeStats stats;
    std::vector<LabeledModule> merged =
        merge_ground_truth_shards(std::move(shard_samples), order, &stats);
    const std::string out =
        farm_merged_path(options.dir, grid, grid_size);
    if (!save_ground_truth(out, merged)) {
      result.error = "cannot write merged dataset " + out;
      return false;
    }
    result.samples += static_cast<long>(merged.size());
    result.merge.shards += stats.shards;
    result.merge.samples += stats.samples;
    result.merge.duplicates_dropped += stats.duplicates_dropped;
    result.merge.unknown_dropped += stats.unknown_dropped;
    for (std::string& warning : stats.warnings) {
      result.merge.warnings.push_back(std::move(warning));
    }
    result.merged_paths.push_back(out);
  }
  return true;
}

}  // namespace

FarmResult run_farm(const FarmOptions& options) {
  FarmResult result;
  const FarmManifest manifest(options.plan);
  result.shards_total = manifest.total_shards();

  if (options.dir.empty()) {
    result.error = "farm directory must not be empty";
    return result;
  }
  if (options.workers < 1 || options.max_attempts < 1) {
    result.error = "workers and max-attempts must be >= 1";
    return result;
  }
  const FarmChaosOptions& chaos = options.plan.chaos;
  if (!fault_probabilities_valid({chaos.p_kill, chaos.p_hang, chaos.p_slow})) {
    result.error = "chaos kill + hang + slow probabilities must not exceed 1";
    return result;
  }
  const std::string exe =
      options.worker_exe.empty() ? self_executable_path() : options.worker_exe;
  if (exe.empty()) {
    result.error = "cannot resolve the worker executable path";
    return result;
  }

  std::error_code ec;
  fs::create_directories(farm_shards_dir(options.dir), ec);
  if (ec) {
    result.error = "cannot create farm directory " + options.dir;
    return result;
  }

  // Persist (or verify) the plan. A directory holding checkpoints for a
  // *different* plan must never be silently re-sharded over.
  const std::string manifest_path = farm_manifest_path(options.dir);
  if (fs::exists(manifest_path)) {
    const std::optional<FarmManifest> existing = load_manifest(manifest_path);
    if (!existing ||
        manifest_to_text(*existing) != manifest_to_text(manifest)) {
      result.error = "farm directory " + options.dir +
                     " holds a different (or damaged) manifest; refusing to "
                     "re-shard over its checkpoints";
      return result;
    }
  } else if (!save_manifest(manifest_path, manifest)) {
    result.error = "cannot write manifest " + manifest_path;
    return result;
  }

  // Adopt prior progress: completed shards are final, quarantined shards
  // stay quarantined (delete the quarantine entry to retry them).
  std::vector<Shard> shards(static_cast<std::size_t>(result.shards_total));
  int settled = 0;
  for (int i = 0; i < result.shards_total; ++i) {
    Shard& shard = shards[static_cast<std::size_t>(i)];
    if (fs::exists(quarantine_reason_path(options.dir, i))) {
      shard.state = ShardState::Quarantined;
      result.shards_quarantined += 1;
      ++settled;
    } else if (fs::exists(farm_shard_done_path(options.dir, i))) {
      shard.state = ShardState::Done;
      result.shards_done += 1;
      result.shards_resumed += 1;
      ++settled;
    }
  }

  const auto poll = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(std::max(1.0, options.poll_ms)));
  const double hang_timeout = std::max(0.01, options.hang_timeout_seconds);

  while (settled < result.shards_total) {
    if (options.cancel != nullptr && options.cancel->cancelled()) {
      // One cooperative SIGTERM per worker (workers checkpoint and exit
      // 130), SIGKILL after the grace window, no zombie outlives the farm.
      std::vector<pid_t> running;
      for (const Shard& shard : shards) {
        if (shard.state == ShardState::Running) running.push_back(shard.pid);
      }
      terminate_and_reap(running, options.grace_seconds);
      result.cancelled = true;
      say(options, "[farm] cancelled; %d/%d shards settled\n", settled,
          result.shards_total);
      return result;
    }

    // Reap: detect clean completion, crash, or signal death.
    for (int i = 0; i < result.shards_total; ++i) {
      Shard& shard = shards[static_cast<std::size_t>(i)];
      if (shard.state != ShardState::Running) continue;
      int status = 0;
      const pid_t got = waitpid(shard.pid, &status, WNOHANG);
      if (got == 0) continue;
      if (got == shard.pid && WIFEXITED(status) &&
          WEXITSTATUS(status) == 0 &&
          fs::exists(farm_shard_done_path(options.dir, i))) {
        shard.state = ShardState::Done;
        shard.pid = -1;
        result.shards_done += 1;
        ++settled;
        say(options, "[farm] shard %d done (%d/%d)\n", i, result.shards_done,
            result.shards_total);
        continue;
      }
      const std::string cause = got == shard.pid
                                    ? describe_wait_status(status)
                                    : std::string("waitpid failure");
      handle_death(options, result, i, shard, cause);
      if (shard.state == ShardState::Quarantined) ++settled;
    }

    // Hang detection: heartbeat *content* unchanged for too long means the
    // worker is alive but stuck (chaos Hang, a wedged tool run); SIGKILL it
    // and let the reap path treat it as a crash.
    for (int i = 0; i < result.shards_total; ++i) {
      Shard& shard = shards[static_cast<std::size_t>(i)];
      if (shard.state != ShardState::Running) continue;
      if (const std::optional<double> stale =
              kill_if_stale(shard.heartbeat, shard.pid, hang_timeout)) {
        say(options, "[farm] shard %d heartbeat stale for %.1fs; killing\n", i,
            *stale);
        result.hung_killed += 1;
      }
    }

    // Spawn: fill idle worker slots with the lowest ready shard (work
    // stealing -- any slot takes any shard; outputs do not depend on it).
    const Clock::time_point now = Clock::now();
    int running = 0;
    for (const Shard& shard : shards) {
      running += shard.state == ShardState::Running ? 1 : 0;
    }
    for (int i = 0; i < result.shards_total && running < options.workers;
         ++i) {
      Shard& shard = shards[static_cast<std::size_t>(i)];
      const bool ready =
          shard.state == ShardState::Pending ||
          (shard.state == ShardState::Backoff && now >= shard.ready_at);
      if (!ready) continue;
      FarmWorkerArgs args;
      args.dir = options.dir;
      args.shard = i;
      args.attempt = shard.attempt;
      // The worker leads its own process group, so a terminal SIGINT
      // reaches only the supervisor, which then delivers exactly one
      // cooperative SIGTERM per worker.
      const pid_t pid = spawn_in_own_group(exe, farm_worker_argv(args));
      if (pid < 0) {
        handle_death(options, result, i, shard, "fork failure");
        if (shard.state == ShardState::Quarantined) ++settled;
        continue;
      }
      shard.state = ShardState::Running;
      shard.pid = pid;
      shard.heartbeat =
          watch_heartbeat(farm_shard_heartbeat_path(options.dir, i));
      result.spawns += 1;
      ++running;
    }

    if (settled < result.shards_total) std::this_thread::sleep_for(poll);
  }

  if (!merge_farm(options, manifest, shards, result)) return result;
  result.ok = result.shards_quarantined == 0;
  if (result.shards_quarantined > 0) {
    result.error = std::to_string(result.shards_quarantined) +
                   " shard(s) quarantined; merged output is partial";
  }
  return result;
}

}  // namespace mf
