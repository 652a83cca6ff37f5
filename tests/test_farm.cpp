// Multi-process DSE farm: manifest determinism, shard merge semantics, and
// the supervisor's self-healing story (crash respawn, hang detection, poison
// quarantine, cancellation, resume) -- all asserted against the headline
// guarantee that the merged dataset is byte-identical to a single-process
// run no matter what was injected along the way.
//
// The farm suites spawn real worker processes by re-executing this test
// binary (tests/test_main.cpp answers --farm-worker before gtest runs), so
// every scenario here exercises genuine fork/exec/waitpid supervision, not
// an in-process simulation.

#include <gtest/gtest.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/cancel.hpp"
#include "fabric/catalog.hpp"
#include "farm/chaos.hpp"
#include "farm/manifest.hpp"
#include "farm/supervisor.hpp"
#include "farm/worker.hpp"
#include "flow/ground_truth.hpp"
#include "flow/serialize.hpp"

namespace {

using namespace mf;
namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_((fs::temp_directory_path() /
               ("mf_farm_" + tag + "_" + std::to_string(::getpid())))
                  .string()) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (fs::path(path_) / name).string();
  }

 private:
  std::string path_;
};

int test_jobs() {
  const char* env = std::getenv("MF_TEST_JOBS");
  return env != nullptr ? std::atoi(env) : 1;
}

/// The small plan every farm scenario runs: tiny modules, a few shards, a
/// chunk size that forces several checkpoints per shard.
FarmPlan small_plan() {
  FarmPlan plan;
  plan.count = 12;
  plan.seed = 42;
  plan.grid = {0.9};
  plan.shards_per_grid = 3;
  plan.checkpoint_every = 2;
  plan.worker_jobs = test_jobs();
  return plan;
}

FarmOptions farm_options(const TempDir& dir, const FarmPlan& plan) {
  FarmOptions options;
  options.dir = dir.file("farm");
  options.plan = plan;
  options.workers = 2;
  options.quiet = true;
  options.poll_ms = 2.0;
  options.backoff_base_ms = 5.0;
  options.backoff_cap_ms = 50.0;
  return options;
}

/// What an uninterrupted single-process run would have produced, as bytes.
std::string reference_bytes(const FarmPlan& plan, double grid_value) {
  CfSearchOptions search;
  search.start = grid_value;
  const GroundTruth truth = build_ground_truth(
      dataset_sweep({plan.count, plan.seed}), xc7z020_model(), search, 1);
  return ground_truth_to_text(truth.samples);
}

std::string file_bytes(const std::string& path) {
  return read_file(path).value_or("");
}

// -- manifest ---------------------------------------------------------------

TEST(FarmManifestTest, RoundTripsThroughText) {
  FarmPlan plan = small_plan();
  plan.grid = {0.5, 0.9};
  plan.chaos.enabled = true;
  plan.chaos.p_kill = 0.25;
  plan.chaos.faults_per_shard = 3;
  const FarmManifest manifest(plan);
  const std::optional<FarmManifest> back =
      manifest_from_text(manifest_to_text(manifest));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(manifest_to_text(*back), manifest_to_text(manifest));
  EXPECT_EQ(back->total_shards(), 6);
  EXPECT_EQ(back->grid_of_shard(4), 1);
  EXPECT_EQ(back->local_shard(4), 1);
}

TEST(FarmManifestTest, RejectsTruncationAndGarbage) {
  const std::string text = manifest_to_text(FarmManifest(small_plan()));
  EXPECT_FALSE(manifest_from_text(text.substr(0, text.size() / 2)));
  EXPECT_FALSE(manifest_from_text("not a manifest\n"));
  EXPECT_FALSE(manifest_from_text(""));
}

TEST(FarmManifestTest, RejectsChaosProbabilitiesOverOne) {
  FarmPlan plan = small_plan();
  plan.chaos.enabled = true;
  plan.chaos.p_kill = 0.8;
  plan.chaos.p_hang = 0.8;
  EXPECT_FALSE(manifest_from_text(manifest_to_text(FarmManifest(plan))));
  plan.chaos.p_hang = 0.2;
  EXPECT_TRUE(manifest_from_text(manifest_to_text(FarmManifest(plan))));
}

TEST(FarmManifestTest, ShardingIsDeterministicAndTotal) {
  const FarmManifest manifest(small_plan());
  const std::vector<GenSpec> specs = manifest.specs();
  std::size_t assigned = 0;
  for (int shard = 0; shard < manifest.total_shards(); ++shard) {
    for (const std::size_t item : manifest.shard_items(shard, specs)) {
      EXPECT_EQ(manifest.shard_of_item(specs[item].name),
                manifest.local_shard(shard));
      ++assigned;
    }
  }
  // Each grid block partitions the full spec list.
  EXPECT_EQ(assigned, specs.size() * manifest.plan().grid.size());
}

TEST(FarmManifestTest, InfeasibleSidecarRoundTripsAndRejectsTruncation) {
  const std::vector<std::string> names = {"a", "b", "c"};
  const std::string text = infeasible_to_text(names);
  const auto back = infeasible_from_text(text);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, names);
  EXPECT_FALSE(infeasible_from_text(text.substr(0, text.size() - 4)));
}

// -- chaos ------------------------------------------------------------------

TEST(FarmChaosTest, DrawIsPureAndRespectsEligibility) {
  FarmChaosOptions opts;
  opts.enabled = true;
  opts.p_kill = 0.5;
  opts.p_hang = 0.25;
  opts.faults_per_shard = 2;
  const FarmChaos chaos(opts);
  for (int shard = 0; shard < 4; ++shard) {
    for (int attempt = 0; attempt < 4; ++attempt) {
      for (int ordinal = 0; ordinal < 6; ++ordinal) {
        const FarmChaos::Action a = chaos.draw(shard, attempt, ordinal);
        EXPECT_EQ(a, chaos.draw(shard, attempt, ordinal));  // pure
        if (ordinal == 0) {
          EXPECT_EQ(a, FarmChaos::Action::None);  // boundary 0 never faults
        }
        if (attempt >= opts.faults_per_shard) {
          EXPECT_NE(a, FarmChaos::Action::Kill);
          EXPECT_NE(a, FarmChaos::Action::Hang);
        }
      }
    }
  }
  EXPECT_EQ(FarmChaos(FarmChaosOptions{}).draw(0, 0, 3),
            FarmChaos::Action::None);  // disabled == no faults
}

// -- merge ------------------------------------------------------------------

LabeledModule sample(const std::string& name, double cf) {
  LabeledModule s;
  s.name = name;
  s.min_cf = cf;
  return s;
}

TEST(FarmMergeTest, LowestShardIndexWinsDuplicates) {
  const std::vector<std::string> order = {"a", "b", "c"};
  std::vector<std::vector<LabeledModule>> shards(2);
  shards[0] = {sample("b", 1.0)};
  shards[1] = {sample("b", 9.0), sample("a", 2.0)};
  ShardMergeStats stats;
  const std::vector<LabeledModule> merged =
      merge_ground_truth_shards(std::move(shards), order, &stats);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].name, "a");  // global order, not arrival order
  EXPECT_EQ(merged[1].name, "b");
  EXPECT_DOUBLE_EQ(merged[1].min_cf, 1.0);  // shard 0's copy won
  EXPECT_EQ(stats.duplicates_dropped, 1);
  ASSERT_EQ(stats.warnings.size(), 1u);
  EXPECT_NE(stats.warnings[0].find("duplicate"), std::string::npos);
}

TEST(FarmMergeTest, DropsUnknownKeysWithWarning) {
  std::vector<std::vector<LabeledModule>> shards(1);
  shards[0] = {sample("ghost", 1.0), sample("a", 2.0)};
  ShardMergeStats stats;
  const std::vector<LabeledModule> merged =
      merge_ground_truth_shards(std::move(shards), {"a"}, &stats);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].name, "a");
  EXPECT_EQ(stats.unknown_dropped, 1);
}

TEST(FarmMergeTest, MissingKeysAreSkippedSilently) {
  std::vector<std::vector<LabeledModule>> shards(3);  // shard 1 "quarantined"
  shards[0] = {sample("a", 1.0)};
  shards[2] = {sample("c", 3.0)};
  ShardMergeStats stats;
  const std::vector<LabeledModule> merged =
      merge_ground_truth_shards(std::move(shards), {"a", "b", "c"}, &stats);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(stats.duplicates_dropped, 0);
  EXPECT_TRUE(stats.warnings.empty());
}

// -- the farm itself --------------------------------------------------------

TEST(FarmTest, CompletesAndMatchesSingleProcessBytes) {
  TempDir dir("complete");
  const FarmOptions options = farm_options(dir, small_plan());
  const FarmResult result = run_farm(options);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.shards_done, 3);
  EXPECT_EQ(result.spawns, 3);
  EXPECT_EQ(result.respawns, 0);
  ASSERT_EQ(result.merged_paths.size(), 1u);
  EXPECT_EQ(file_bytes(result.merged_paths[0]),
            reference_bytes(options.plan, 0.9));
}

TEST(FarmTest, MultiGridProducesOneDatasetPerGridValue) {
  TempDir dir("grid");
  FarmPlan plan = small_plan();
  plan.grid = {0.5, 0.9};
  plan.shards_per_grid = 2;
  const FarmOptions options = farm_options(dir, plan);
  const FarmResult result = run_farm(options);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.merged_paths.size(), 2u);
  EXPECT_EQ(file_bytes(result.merged_paths[0]), reference_bytes(plan, 0.5));
  EXPECT_EQ(file_bytes(result.merged_paths[1]), reference_bytes(plan, 0.9));
}

TEST(FarmTest, ResumeTrustsDoneShards) {
  TempDir dir("resume");
  const FarmOptions options = farm_options(dir, small_plan());
  ASSERT_TRUE(run_farm(options).ok);
  const FarmResult again = run_farm(options);
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_EQ(again.shards_resumed, 3);
  EXPECT_EQ(again.spawns, 0);  // nothing left to do
  EXPECT_EQ(file_bytes(again.merged_paths[0]),
            reference_bytes(options.plan, 0.9));
}

TEST(FarmTest, ChaosKillsRecoverBitIdentically) {
  TempDir dir("kills");
  FarmPlan plan = small_plan();
  plan.chaos.enabled = true;
  plan.chaos.p_kill = 1.0;        // die at every eligible chunk boundary...
  plan.chaos.faults_per_shard = 2;  // ...for the first two attempts
  FarmOptions options = farm_options(dir, plan);
  options.max_attempts = 4;
  const FarmResult result = run_farm(options);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GT(result.respawns, 0);
  EXPECT_EQ(result.shards_quarantined, 0);
  // The headline: injected SIGKILLs at checkpoint boundaries change nothing
  // about the bytes of the merged dataset.
  FarmPlan clean = small_plan();
  EXPECT_EQ(file_bytes(result.merged_paths[0]), reference_bytes(clean, 0.9));
}

TEST(FarmTest, PoisonShardIsQuarantinedAndFarmContinues) {
  TempDir dir("poison");
  FarmPlan plan = small_plan();
  plan.chaos.enabled = true;
  plan.chaos.p_kill = 1.0;  // faults_per_shard stays INT_MAX: never heals
  FarmOptions options = farm_options(dir, plan);
  options.max_attempts = 2;
  const FarmResult result = run_farm(options);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.cancelled);
  EXPECT_EQ(result.shards_quarantined, 3);
  EXPECT_EQ(result.shards_done, 0);
  // Every poisoned shard leaves a .reason trail and the merge still ran
  // (over the surviving -- here zero -- shards).
  for (int shard = 0; shard < 3; ++shard) {
    const std::string reason =
        (fs::path(farm_quarantine_dir(options.dir)) /
         (farm_shard_stem(shard) + ".reason"))
            .string();
    EXPECT_TRUE(fs::exists(reason)) << reason;
    EXPECT_NE(file_bytes(reason).find("gave up"), std::string::npos);
  }
  ASSERT_EQ(result.merged_paths.size(), 1u);
  const auto merged = load_ground_truth(result.merged_paths[0]);
  ASSERT_TRUE(merged.has_value());
  EXPECT_TRUE(merged->empty());
}

TEST(FarmTest, HungWorkerIsKilledAndRespawned) {
  TempDir dir("hang");
  FarmPlan plan = small_plan();
  plan.chaos.enabled = true;
  plan.chaos.p_hang = 1.0;
  plan.chaos.faults_per_shard = 1;  // hang once per shard, then run clean
  FarmOptions options = farm_options(dir, plan);
  options.hang_timeout_seconds = 0.4;
  options.max_attempts = 3;
  const FarmResult result = run_farm(options);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GT(result.hung_killed, 0);
  EXPECT_GT(result.respawns, 0);
  FarmPlan clean = small_plan();
  EXPECT_EQ(file_bytes(result.merged_paths[0]), reference_bytes(clean, 0.9));
}

TEST(FarmTest, DeadlineCancelsAndResumeCompletes) {
  TempDir dir("deadline");
  FarmPlan plan = small_plan();
  plan.chaos.enabled = true;
  plan.chaos.p_slow = 1.0;  // stretch the run so the deadline lands mid-farm
  plan.chaos.slow_ms = 30.0;
  CancelToken token;
  token.set_deadline_seconds(0.05);
  FarmOptions options = farm_options(dir, plan);
  options.cancel = &token;
  const FarmResult cancelled = run_farm(options);
  EXPECT_TRUE(cancelled.cancelled);
  EXPECT_FALSE(cancelled.ok);
  EXPECT_TRUE(cancelled.merged_paths.empty());  // no partial merge

  // Same directory, same plan, no deadline: picks the checkpoints up and
  // finishes with the uninterrupted bytes.
  options.cancel = nullptr;
  const FarmResult resumed = run_farm(options);
  ASSERT_TRUE(resumed.ok) << resumed.error;
  FarmPlan clean = small_plan();
  EXPECT_EQ(file_bytes(resumed.merged_paths[0]), reference_bytes(clean, 0.9));
}

TEST(FarmTest, RefusesDirectoryWithDifferentManifest) {
  TempDir dir("mismatch");
  FarmOptions options = farm_options(dir, small_plan());
  ASSERT_TRUE(run_farm(options).ok);
  options.plan.count = 13;  // a different plan over the same checkpoints
  const FarmResult result = run_farm(options);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("manifest"), std::string::npos);
}

TEST(FarmTest, RejectsBadOptions) {
  EXPECT_FALSE(run_farm(FarmOptions{}).ok);  // empty dir
  TempDir dir("badopts");
  FarmOptions options = farm_options(dir, small_plan());
  options.workers = 0;
  EXPECT_FALSE(run_farm(options).ok);
  options = farm_options(dir, small_plan());
  options.plan.chaos.enabled = true;
  options.plan.chaos.p_kill = 0.5;
  options.plan.chaos.p_slow = 0.6;
  const FarmResult chaos = run_farm(options);
  EXPECT_FALSE(chaos.ok);
  EXPECT_NE(chaos.error.find("chaos"), std::string::npos);
}

// -- worker argv round-trip -------------------------------------------------

TEST(FarmWorkerTest, ArgvRoundTrips) {
  FarmWorkerArgs args;
  args.dir = "/tmp/somewhere";
  args.shard = 7;
  args.attempt = 3;
  std::vector<std::string> argv_strings = farm_worker_argv(args);
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>("binary"));
  for (std::string& s : argv_strings) argv.push_back(s.data());
  const std::optional<FarmWorkerArgs> back =
      parse_farm_worker_argv(static_cast<int>(argv.size()), argv.data());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->dir, args.dir);
  EXPECT_EQ(back->shard, args.shard);
  EXPECT_EQ(back->attempt, args.attempt);
}

TEST(FarmWorkerTest, NonWorkerArgvPassesThrough) {
  const char* argv[] = {"binary", "devices"};
  EXPECT_FALSE(
      parse_farm_worker_argv(2, const_cast<char**>(argv)).has_value());
}

TEST(FarmWorkerTest, MalformedWorkerArgvIsRejectedNotIgnored) {
  const char* argv[] = {"binary", "--farm-worker", "--shard", "oops"};
  const std::optional<FarmWorkerArgs> args =
      parse_farm_worker_argv(4, const_cast<char**>(argv));
  ASSERT_TRUE(args.has_value());  // it *is* a worker invocation...
  EXPECT_LT(args->shard, 0);      // ...but an invalid one
}

// -- signal handler install/restore (satellite) -----------------------------

TEST(FarmSignalTest, InstallIsIdempotentAndDetachRestores) {
  // Give SIGTERM a known non-default disposition to restore.
  using Handler = void (*)(int);
  const Handler previous = std::signal(SIGTERM, SIG_IGN);
  ASSERT_NE(previous, SIG_ERR);

  CancelToken first;
  CancelToken second;
  EXPECT_TRUE(install_signal_cancel(&first));
  EXPECT_TRUE(install_signal_cancel(&second));  // idempotent re-install
  // The live handler now trips the *second* token.
  std::raise(SIGTERM);
  EXPECT_FALSE(first.cancelled());
  EXPECT_TRUE(second.cancelled());

  // Detach restores the pre-install disposition (SIG_IGN), not SIG_DFL --
  // raising SIGTERM again must be ignored rather than kill the process.
  EXPECT_TRUE(install_signal_cancel(nullptr));
  std::raise(SIGTERM);
  EXPECT_FALSE(first.cancelled());

  std::signal(SIGTERM, previous == SIG_ERR ? SIG_DFL : previous);
}

}  // namespace
