// Chaos suite for the fault-tolerant flow runtime: deterministic fault
// injection, retry/backoff accounting, graceful degradation, checkpoint
// resume, and the SA watchdog. Everything here is seeded -- two runs with
// the same knobs must agree bit-for-bit.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "fabric/catalog.hpp"
#include "flow/rw_flow.hpp"
#include "flow/serialize.hpp"
#include "flow/tool_run.hpp"
#include "nn/cnv_w1a1.hpp"
#include "nn/finn_blocks.hpp"
#include "rtlgen/generators.hpp"

namespace mf {
namespace {

/// Same synthetic design as test_flow.cpp: 3 unique blocks, 8 instances.
BlockDesign small_design() {
  BlockDesign design;
  Rng rng(1);
  MixedParams a;
  a.luts = 120;
  a.ffs = 100;
  design.unique_modules.push_back(gen_mixed(a, rng));
  design.unique_modules.back().name = "block_a";
  MixedParams bparams;
  bparams.luts = 60;
  bparams.ffs = 90;
  bparams.carry_adders = 1;
  design.unique_modules.push_back(gen_mixed(bparams, rng));
  design.unique_modules.back().name = "block_b";
  Rng rng2(2);
  design.unique_modules.push_back(gen_mvau({32, 1, 16, 1}, rng2));
  design.unique_modules.back().name = "block_c";

  const int pattern[] = {0, 1, 2, 1, 0, 2, 1, 1};
  for (int i = 0; i < 8; ++i) {
    design.instances.push_back(
        BlockInstance{"i" + std::to_string(i), pattern[i]});
  }
  for (int i = 0; i + 1 < 8; ++i) {
    design.nets.push_back(BlockNet{{i, i + 1}, 1.0});
  }
  return design;
}

RwFlowOptions fast_opts() {
  RwFlowOptions opts;
  opts.compute_timing = false;
  opts.stitch.moves_per_temp = 100;
  opts.stitch.cooling = 0.8;
  // ctest re-runs this suite as `chaos_parallel_jobs` with MF_TEST_JOBS=8 so
  // fault injection and the parallel engine are exercised together. Every
  // expectation below is unconditional on the thread count -- determinism is
  // the contract being tested.
  if (const char* jobs = std::getenv("MF_TEST_JOBS")) {
    opts.jobs = std::max(1, std::atoi(jobs));
  }
  return opts;
}

ToolRunnerOptions chaos_options(double p_crash, double p_timeout,
                                double p_spurious,
                                std::uint64_t seed = 0xc0ffee) {
  ToolRunnerOptions opts;
  opts.fault.enabled = true;
  opts.fault.seed = seed;
  opts.fault.p_crash = p_crash;
  opts.fault.p_timeout = p_timeout;
  opts.fault.p_spurious_infeasible = p_spurious;
  return opts;
}

PlaceResult feasible_place() {
  PlaceResult place;
  place.feasible = true;
  place.used_slices = 10;
  return place;
}

// -- FaultInjector ----------------------------------------------------------

TEST(FaultInjector, DisabledInjectsNothing) {
  FaultInjectorOptions opts;
  opts.enabled = false;
  opts.p_crash = 1.0;
  const FaultInjector injector(opts);
  for (int k = 0; k < 100; ++k) {
    EXPECT_EQ(injector.draw("block", k), FaultKind::None);
  }
}

TEST(FaultInjector, DrawIsAPureFunctionOfSeedBlockAndOrdinal) {
  const auto opts = chaos_options(0.2, 0.2, 0.2).fault;
  const FaultInjector a(opts);
  const FaultInjector b(opts);
  for (int k = 0; k < 500; ++k) {
    EXPECT_EQ(a.draw("mvau_3", k), b.draw("mvau_3", k));
  }
  // Different blocks get independent streams; different seeds diverge.
  auto other_seed = opts;
  other_seed.seed = 1234567;
  const FaultInjector c(other_seed);
  int differing_block = 0;
  int differing_seed = 0;
  for (int k = 0; k < 500; ++k) {
    differing_block += a.draw("mvau_3", k) != a.draw("thres_1", k) ? 1 : 0;
    differing_seed += a.draw("mvau_3", k) != c.draw("mvau_3", k) ? 1 : 0;
  }
  EXPECT_GT(differing_block, 0);
  EXPECT_GT(differing_seed, 0);
}

TEST(FaultInjector, RatesRoughlyMatchProbabilities) {
  const FaultInjector injector(chaos_options(0.1, 0.1, 0.1).fault);
  int crash = 0;
  int timeout = 0;
  int spurious = 0;
  const int n = 20000;
  for (int k = 0; k < n; ++k) {
    switch (injector.draw("block", k)) {
      case FaultKind::Crash: ++crash; break;
      case FaultKind::Timeout: ++timeout; break;
      case FaultKind::SpuriousInfeasible: ++spurious; break;
      case FaultKind::None: break;
    }
  }
  EXPECT_NEAR(crash / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(timeout / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(spurious / static_cast<double>(n), 0.1, 0.01);
}

TEST(FaultInjector, RejectsBadProbabilities) {
  FaultInjectorOptions opts;
  opts.enabled = true;
  opts.p_crash = 0.7;
  opts.p_timeout = 0.7;
  EXPECT_THROW(FaultInjector{opts}, CheckError);
  opts.p_timeout = -0.1;
  EXPECT_THROW(FaultInjector{opts}, CheckError);
}

// -- ToolRunner: retry, backoff, budgets ------------------------------------

TEST(ToolRunner, RetryCountersAndBackoffAreExact) {
  // Every invocation crashes: the check burns its full attempt allowance.
  auto opts = chaos_options(1.0, 0.0, 0.0);
  opts.retry.max_attempts_per_check = 4;
  opts.retry.backoff_base_ms = 50.0;
  opts.retry.backoff_cap_ms = 2000.0;
  ToolRunner runner(opts);
  const auto out = runner.run_check("b", 1.5, [] { return feasible_place(); });
  EXPECT_FALSE(out.completed);
  EXPECT_EQ(out.error.kind, FlowErrorKind::ToolCrash);
  EXPECT_EQ(out.error.block, "b");
  EXPECT_DOUBLE_EQ(out.error.cf, 1.5);
  EXPECT_EQ(out.error.attempts, 4);
  EXPECT_EQ(runner.stats().invocations, 4);
  EXPECT_EQ(runner.stats().crashes, 4);
  EXPECT_EQ(runner.stats().retries, 3);
  EXPECT_EQ(runner.stats().completed, 0);
  // Backoff schedule: 50, 100, 200 ms for retries 1..3.
  EXPECT_DOUBLE_EQ(runner.stats().backoff_ms, 350.0);
}

TEST(ToolRunner, BackoffIsCapped) {
  auto opts = chaos_options(0.0, 1.0, 0.0);
  opts.retry.max_attempts_per_check = 4;
  opts.retry.backoff_base_ms = 100.0;
  opts.retry.backoff_cap_ms = 150.0;
  ToolRunner runner(opts);
  const auto out = runner.run_check("b", 1.0, [] { return feasible_place(); });
  EXPECT_EQ(out.error.kind, FlowErrorKind::ToolTimeout);
  // 100 + capped(200 -> 150) + capped(400 -> 150).
  EXPECT_DOUBLE_EQ(runner.stats().backoff_ms, 400.0);
}

TEST(ToolRunner, PerBlockRetryBudgetExhaustsAndCanBeRegranted) {
  auto opts = chaos_options(1.0, 0.0, 0.0);
  opts.retry.max_attempts_per_check = 4;
  opts.retry.retry_budget_per_block = 2;
  ToolRunner runner(opts);
  auto out = runner.run_check("b", 1.0, [] { return feasible_place(); });
  EXPECT_EQ(out.error.attempts, 3);  // 2 retries allowed, then budget dry
  EXPECT_EQ(runner.retries_used("b"), 2);
  // Budget spent: the next check on the same block fails on first crash.
  out = runner.run_check("b", 1.1, [] { return feasible_place(); });
  EXPECT_EQ(out.error.attempts, 1);
  // Other blocks have their own budget; a fresh grant restores this one.
  out = runner.run_check("other", 1.0, [] { return feasible_place(); });
  EXPECT_EQ(out.error.attempts, 3);
  runner.grant_fresh_budget("b");
  out = runner.run_check("b", 1.2, [] { return feasible_place(); });
  EXPECT_EQ(out.error.attempts, 3);
}

TEST(ToolRunner, SpuriousInfeasibleFlipsTheVerdict) {
  ToolRunner runner(chaos_options(0.0, 0.0, 1.0));
  const auto out = runner.run_check("b", 1.0, [] { return feasible_place(); });
  ASSERT_TRUE(out.completed);
  EXPECT_FALSE(out.place.feasible);
  EXPECT_EQ(out.place.fail_reason, "injected: spurious infeasible verdict");
  EXPECT_EQ(runner.stats().spurious, 1);
  EXPECT_EQ(runner.stats().completed, 1);
}

TEST(ToolRunner, CleanRunPassesVerdictThrough) {
  ToolRunner runner(chaos_options(0.0, 0.0, 0.0));
  const auto out = runner.run_check("b", 1.0, [] { return feasible_place(); });
  ASSERT_TRUE(out.completed);
  EXPECT_TRUE(out.place.feasible);
  EXPECT_EQ(out.attempts, 1);
  EXPECT_EQ(runner.stats().invocations, 1);
  EXPECT_EQ(runner.stats().retries, 0);
}

// -- CF-search option validation (satellite) --------------------------------

struct Prepared {
  Module module;
  ResourceReport report;
  ShapeReport shape;
};

Prepared prepared_module() {
  Rng rng(7);
  MixedParams p;
  p.luts = 80;
  p.ffs = 60;
  Prepared out{gen_mixed(p, rng), {}, {}};
  out.report = make_report(out.module.netlist);
  out.shape = quick_place(out.report);
  return out;
}

TEST(CfSearchValidation, FindMinCfRejectsContradictoryOptions) {
  const Device dev = xc7z020_model();
  const Prepared p = prepared_module();
  CfSearchOptions opts;
  opts.max_cf = opts.start - 0.1;  // empty range
  EXPECT_THROW(find_min_cf(p.module, p.report, p.shape, dev, opts),
               CheckError);
  CfSearchOptions bad_step;
  bad_step.step = 0.0;
  EXPECT_THROW(find_min_cf(p.module, p.report, p.shape, dev, bad_step),
               CheckError);
}

TEST(CfSearchValidation, SeededSearchFailsFastOnSeedAboveMax) {
  const Device dev = xc7z020_model();
  const Prepared p = prepared_module();
  const CfSearchOptions opts;  // max_cf = 3.0
  EXPECT_THROW(seeded_cf_search(p.module, p.report, p.shape, dev, 3.5, opts),
               CheckError);
  EXPECT_THROW(seeded_cf_search(p.module, p.report, p.shape, dev, 0.0, opts),
               CheckError);
  CfSearchOptions bad_step;
  bad_step.step = -0.02;
  EXPECT_THROW(seeded_cf_search(p.module, p.report, p.shape, dev, 1.0,
                                bad_step),
               CheckError);
}

TEST(CfSearchValidation, SearchAbortsWithStructuredErrorOnPersistentCrash) {
  const Device dev = xc7z020_model();
  const Prepared p = prepared_module();
  ToolRunner runner(chaos_options(1.0, 0.0, 0.0));
  CfSearchOptions opts;
  opts.runner = &runner;
  const SeededSearchResult r =
      seeded_cf_search(p.module, p.report, p.shape, dev, 1.5, opts);
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.error.kind, FlowErrorKind::ToolCrash);
  EXPECT_EQ(r.error.block, p.module.name);
  EXPECT_EQ(r.tool_runs, 0);  // no check ever completed: no paper tool runs
}

// -- A/B: injection disabled is bit-identical to the plain flow -------------

TEST(FaultFlow, DisabledInjectionIsBitIdenticalOnSmallDesign) {
  const Device dev = xc7z020_model();
  const BlockDesign design = small_design();
  CfPolicy policy;
  policy.constant_cf = 1.8;
  const RwFlowResult plain = run_rw_flow(design, dev, policy, fast_opts());

  ToolRunner runner(chaos_options(0.0, 0.0, 0.0));  // enabled, all rates 0
  RwFlowOptions opts = fast_opts();
  opts.search.runner = &runner;
  const RwFlowResult wrapped = run_rw_flow(design, dev, policy, opts);

  ASSERT_EQ(wrapped.blocks.size(), plain.blocks.size());
  EXPECT_EQ(wrapped.total_tool_runs, plain.total_tool_runs);
  EXPECT_EQ(wrapped.failed_blocks, plain.failed_blocks);
  EXPECT_EQ(wrapped.degraded_blocks, 0);
  for (std::size_t i = 0; i < plain.blocks.size(); ++i) {
    EXPECT_EQ(wrapped.blocks[i].status, plain.blocks[i].status);
    EXPECT_DOUBLE_EQ(wrapped.blocks[i].macro.cf, plain.blocks[i].macro.cf);
    EXPECT_EQ(wrapped.blocks[i].macro.tool_runs,
              plain.blocks[i].macro.tool_runs);
    EXPECT_EQ(wrapped.blocks[i].macro.used_slices,
              plain.blocks[i].macro.used_slices);
  }
  EXPECT_DOUBLE_EQ(wrapped.stitch.cost, plain.stitch.cost);
  EXPECT_EQ(runner.stats().completed, wrapped.total_tool_runs);
  EXPECT_EQ(runner.stats().crashes, 0);
  EXPECT_EQ(runner.stats().retries, 0);
}

TEST(FaultFlow, DisabledInjectionIsBitIdenticalOnCnvW1A1) {
  // The acceptance A/B: placed-block counts, tool-run counts, and stitch
  // cost on the paper's application design must not move when the
  // fault-tolerant runtime is threaded through but injection is off.
  const Device dev = xc7z020_model();
  const CnvDesign design = build_cnv_w1a1();
  CfPolicy policy;
  policy.constant_cf = 1.5;
  const RwFlowResult plain = run_rw_flow(design, dev, policy, fast_opts());

  ToolRunner runner(chaos_options(0.0, 0.0, 0.0));
  RwFlowOptions opts = fast_opts();
  opts.search.runner = &runner;
  const RwFlowResult wrapped = run_rw_flow(design, dev, policy, opts);

  EXPECT_EQ(wrapped.total_tool_runs, plain.total_tool_runs);
  EXPECT_EQ(wrapped.failed_blocks, plain.failed_blocks);
  EXPECT_EQ(wrapped.problem.instances.size(), plain.problem.instances.size());
  EXPECT_EQ(wrapped.stitch.unplaced, plain.stitch.unplaced);
  EXPECT_DOUBLE_EQ(wrapped.stitch.cost, plain.stitch.cost);
  EXPECT_DOUBLE_EQ(wrapped.stitch.wirelength, plain.stitch.wirelength);
  ASSERT_EQ(wrapped.blocks.size(), plain.blocks.size());
  for (std::size_t i = 0; i < plain.blocks.size(); ++i) {
    EXPECT_DOUBLE_EQ(wrapped.blocks[i].macro.cf, plain.blocks[i].macro.cf);
  }
}

// -- Chaos: deterministic partial results under injection -------------------

RwFlowResult chaos_run(const BlockDesign& design, double rate,
                       std::uint64_t seed, ToolRunner& runner) {
  // Split the total failure rate across the three fault kinds.
  ToolRunnerOptions ro =
      chaos_options(0.4 * rate, 0.3 * rate, 0.3 * rate, seed);
  ro.retry.max_attempts_per_check = 4;
  ro.retry.retry_budget_per_block = 8;
  runner = ToolRunner(ro);
  RwFlowOptions opts = fast_opts();
  opts.search.runner = &runner;
  CfPolicy policy;
  policy.constant_cf = 1.8;
  return run_rw_flow(design, xc7z020_model(), policy, opts);
}

TEST(FaultFlow, ChaosIsDeterministicAndNeverThrows) {
  const BlockDesign design = small_design();
  for (const double rate : {0.1, 0.5}) {
    ToolRunner r1;
    ToolRunner r2;
    RwFlowResult a;
    RwFlowResult b;
    ASSERT_NO_THROW(a = chaos_run(design, rate, 0xdead, r1)) << rate;
    ASSERT_NO_THROW(b = chaos_run(design, rate, 0xdead, r2)) << rate;
    EXPECT_EQ(a.total_tool_runs, b.total_tool_runs);
    EXPECT_EQ(a.failed_blocks, b.failed_blocks);
    EXPECT_EQ(a.degraded_blocks, b.degraded_blocks);
    ASSERT_EQ(a.blocks.size(), b.blocks.size());
    for (std::size_t i = 0; i < a.blocks.size(); ++i) {
      EXPECT_EQ(a.blocks[i].status, b.blocks[i].status);
      EXPECT_EQ(a.blocks[i].attempts, b.blocks[i].attempts);
      EXPECT_DOUBLE_EQ(a.blocks[i].macro.cf, b.blocks[i].macro.cf);
    }
    EXPECT_EQ(r1.stats().invocations, r2.stats().invocations);
    EXPECT_EQ(r1.stats().crashes, r2.stats().crashes);
    EXPECT_EQ(r1.stats().timeouts, r2.stats().timeouts);
    EXPECT_EQ(r1.stats().spurious, r2.stats().spurious);
    EXPECT_EQ(r1.stats().retries, r2.stats().retries);
    EXPECT_DOUBLE_EQ(r1.stats().backoff_ms, r2.stats().backoff_ms);
  }
}

TEST(FaultFlow, ToolRunAccountingMatchesThePaperCountingRules) {
  // Every paper tool run is a completed feasibility check; crashed/timed-out
  // invocations are retried wall-clock but never counted as tool runs.
  const BlockDesign design = small_design();
  for (const double rate : {0.1, 0.5}) {
    ToolRunner runner;
    const RwFlowResult r = chaos_run(design, rate, 0xbeef, runner);
    EXPECT_EQ(runner.stats().completed, r.total_tool_runs) << rate;
    EXPECT_EQ(runner.stats().invocations,
              runner.stats().completed + runner.stats().crashes +
                  runner.stats().timeouts)
        << rate;
    EXPECT_GT(runner.stats().invocations, 0) << rate;
  }
}

TEST(FaultFlow, ChaosReturnsPartialResultsWithStructuredErrors) {
  const BlockDesign design = small_design();
  // Aggressive chaos with a starved retry budget forces real failures.
  ToolRunnerOptions ro = chaos_options(0.35, 0.1, 0.05, 0x5eed);
  ro.retry.max_attempts_per_check = 2;
  ro.retry.retry_budget_per_block = 1;
  ToolRunner runner(ro);
  RwFlowOptions opts = fast_opts();
  opts.search.runner = &runner;
  CfPolicy policy;
  policy.constant_cf = 1.8;
  RwFlowResult r;
  ASSERT_NO_THROW(r = run_rw_flow(small_design(), xc7z020_model(), policy,
                                  opts));
  ASSERT_EQ(r.blocks.size(), design.unique_modules.size());
  int failed = 0;
  for (const ImplementedBlock& blk : r.blocks) {
    if (blk.ok()) continue;
    ++failed;
    EXPECT_NE(blk.error.kind, FlowErrorKind::None);
    EXPECT_EQ(blk.error.block, blk.name);
    EXPECT_FALSE(to_string(blk.error).empty());
  }
  EXPECT_EQ(failed, r.failed_blocks);
  EXPECT_EQ(static_cast<int>(r.errors.size()), r.failed_blocks);
  // The stitch problem only carries implemented blocks.
  int usable = 0;
  for (const ImplementedBlock& blk : r.blocks) usable += blk.ok() ? 1 : 0;
  EXPECT_EQ(r.problem.macros.size(), static_cast<std::size_t>(usable));
}

TEST(FaultFlow, SpuriousVerdictsDegradeToEscalatedCf) {
  // Pure spurious-infeasible chaos: checks always complete, but half the
  // verdicts lie. Degradation must rescue blocks at the escalated CF rather
  // than failing the flow, and degraded blocks must reach the stitcher.
  ToolRunnerOptions ro = chaos_options(0.0, 0.0, 0.5, 0x51d);
  ToolRunner runner(ro);
  RwFlowOptions opts = fast_opts();
  opts.search.runner = &runner;
  CfPolicy policy;
  policy.constant_cf = 1.8;
  const RwFlowResult r =
      run_rw_flow(small_design(), xc7z020_model(), policy, opts);
  EXPECT_GT(runner.stats().spurious, 0);
  for (const ImplementedBlock& blk : r.blocks) {
    if (!blk.degraded()) continue;
    EXPECT_GE(blk.macro.cf, opts.degrade_cf - 1e-9);
    EXPECT_NE(blk.error.kind, FlowErrorKind::None);  // why it degraded
  }
  EXPECT_EQ(r.degraded_blocks,
            static_cast<int>(std::count_if(
                r.blocks.begin(), r.blocks.end(),
                [](const ImplementedBlock& b) { return b.degraded(); })));
}

// -- Checkpoint / resume ----------------------------------------------------

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    design_ = small_design();
    policy_.constant_cf = 1.8;
    original_ = cache_.run(design_, device_, policy_, fast_opts());
    ASSERT_EQ(original_.failed_blocks, 0);
    ASSERT_EQ(cache_.size(), 3u);
  }

  const Device device_ = xc7z020_model();
  BlockDesign design_;
  CfPolicy policy_;
  ModuleCache cache_;
  RwFlowResult original_;
};

TEST_F(CheckpointTest, RoundTripRestoresEveryMacro) {
  const std::string text = module_cache_to_text(cache_);
  ModuleCache reloaded;
  const CacheLoadStats stats = module_cache_from_text(text, reloaded);
  EXPECT_TRUE(stats.header_ok);
  EXPECT_TRUE(stats.complete);
  EXPECT_EQ(stats.loaded, 3);
  EXPECT_EQ(stats.corrupted, 0);
  ASSERT_EQ(reloaded.size(), cache_.size());
  for (const auto& [name, block] : cache_.entries()) {
    const ImplementedBlock* restored = reloaded.find(name);
    ASSERT_NE(restored, nullptr) << name;
    EXPECT_EQ(restored->status, block.status);
    EXPECT_DOUBLE_EQ(restored->macro.cf, block.macro.cf);
    EXPECT_DOUBLE_EQ(restored->macro.fill_ratio, block.macro.fill_ratio);
    EXPECT_EQ(restored->macro.tool_runs, block.macro.tool_runs);
    EXPECT_EQ(restored->macro.used_slices, block.macro.used_slices);
    EXPECT_TRUE(restored->macro.pblock == block.macro.pblock);
    EXPECT_EQ(restored->macro.footprint.kinds, block.macro.footprint.kinds);
    EXPECT_EQ(restored->macro.footprint.height, block.macro.footprint.height);
    EXPECT_DOUBLE_EQ(restored->seed_cf, block.seed_cf);
  }
}

TEST_F(CheckpointTest, ResumeAfterReloadRunsNothing) {
  // Pid-unique: this test also runs concurrently with itself under the
  // fault_parallel_jobs ctest entry.
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("mf_ckpt_resume_" + std::to_string(::getpid()) + ".txt"))
          .string();
  ASSERT_TRUE(save_module_cache(path, cache_));
  ModuleCache resumed;
  const CacheLoadStats stats = load_module_cache(path, resumed);
  std::remove(path.c_str());
  ASSERT_TRUE(stats.complete);
  const RwFlowResult r = resumed.run(design_, device_, policy_, fast_opts());
  EXPECT_EQ(resumed.hits(), 3);
  EXPECT_EQ(resumed.misses(), 0);
  EXPECT_EQ(r.total_tool_runs, 0);
  EXPECT_EQ(r.problem.instances.size(), original_.problem.instances.size());
}

TEST_F(CheckpointTest, CorruptedEntryIsDetectedAndOnlyThatBlockReruns) {
  std::string text = module_cache_to_text(cache_);
  // Flip the payload of block_b's entry; its checksum no longer matches.
  const std::size_t pos = text.find("\nblock_b ");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 7] = 'X';  // "block_b" -> "block_X"

  ModuleCache resumed;
  const CacheLoadStats stats = module_cache_from_text(text, resumed);
  EXPECT_TRUE(stats.header_ok);
  EXPECT_TRUE(stats.complete);  // every entry accounted for, one rejected
  EXPECT_EQ(stats.loaded, 2);
  EXPECT_EQ(stats.corrupted, 1);
  EXPECT_EQ(resumed.find("block_b"), nullptr);

  // Kill-and-resume: only the corrupted block re-runs.
  const RwFlowResult r = resumed.run(design_, device_, policy_, fast_opts());
  EXPECT_EQ(resumed.hits(), 2);
  EXPECT_EQ(resumed.misses(), 1);
  const ImplementedBlock* recompiled = resumed.find("block_b");
  ASSERT_NE(recompiled, nullptr);
  // Re-implementation is deterministic: the recompiled macro matches the
  // original bit-for-bit.
  const ImplementedBlock* first = cache_.find("block_b");
  ASSERT_NE(first, nullptr);
  EXPECT_DOUBLE_EQ(recompiled->macro.cf, first->macro.cf);
  EXPECT_TRUE(recompiled->macro.pblock == first->macro.pblock);
  EXPECT_EQ(recompiled->macro.used_slices, first->macro.used_slices);
  EXPECT_EQ(r.total_tool_runs, first->macro.tool_runs);
  EXPECT_EQ(r.problem.instances.size(), original_.problem.instances.size());
}

TEST_F(CheckpointTest, TruncatedCheckpointDropsTheTail) {
  const std::string text = module_cache_to_text(cache_);
  // Cut mid-way through the last entry: the partial line fails its checksum
  // and the footer is gone, so the load reports an incomplete file.
  const std::size_t pos = text.find("\nblock_c ");
  ASSERT_NE(pos, std::string::npos);
  const std::string truncated = text.substr(0, pos + 15);

  ModuleCache resumed;
  const CacheLoadStats stats = module_cache_from_text(truncated, resumed);
  EXPECT_TRUE(stats.header_ok);
  EXPECT_FALSE(stats.complete);
  EXPECT_EQ(stats.loaded, 2);
  EXPECT_EQ(stats.corrupted, 1);
  // The surviving entries still resume; the dropped one recompiles.
  const RwFlowResult r = resumed.run(design_, device_, policy_, fast_opts());
  EXPECT_EQ(resumed.misses(), 1);
  EXPECT_EQ(r.failed_blocks, 0);
}

TEST(Checkpoint, MissingFileAndWrongHeaderAreRejected) {
  ModuleCache cache;
  const CacheLoadStats missing = load_module_cache("/tmp/mf_no_such", cache);
  EXPECT_FALSE(missing.header_ok);
  const CacheLoadStats wrong = module_cache_from_text("bogus v9\n", cache);
  EXPECT_FALSE(wrong.header_ok);
  EXPECT_EQ(cache.size(), 0u);
}

// -- SA-stitcher watchdog ---------------------------------------------------

StitchProblem small_problem() {
  CfPolicy policy;
  policy.constant_cf = 1.8;
  RwFlowOptions opts = fast_opts();
  opts.run_stitch = false;
  RwFlowResult r = run_rw_flow(small_design(), xc7z020_model(), policy, opts);
  return std::move(r.problem);
}

TEST(StitchWatchdog, MoveBudgetDegradesToBestSnapshot) {
  const Device dev = xc7z020_model();
  const StitchProblem problem = small_problem();
  StitchOptions unbounded;
  unbounded.moves_per_temp = 100;
  unbounded.cooling = 0.8;
  const StitchResult full = stitch(dev, problem, unbounded);
  EXPECT_FALSE(full.watchdog_fired);

  StitchOptions budgeted = unbounded;
  budgeted.max_moves = 50;
  const StitchResult cut = stitch(dev, problem, budgeted);
  EXPECT_TRUE(cut.watchdog_fired);
  EXPECT_LE(cut.total_moves, 50);
  // Degraded, not broken: a complete placement state with a finite cost.
  EXPECT_EQ(cut.positions.size(), problem.instances.size());
  EXPECT_GE(cut.cost, full.cost - 1e-9);
  EXPECT_EQ(cut.unplaced, 0);  // final_fill still parks every block it can
}

TEST(StitchWatchdog, MoveBudgetIsDeterministic) {
  const Device dev = xc7z020_model();
  const StitchProblem problem = small_problem();
  StitchOptions opts;
  opts.moves_per_temp = 100;
  opts.cooling = 0.8;
  opts.max_moves = 120;
  const StitchResult a = stitch(dev, problem, opts);
  const StitchResult b = stitch(dev, problem, opts);
  EXPECT_TRUE(a.watchdog_fired);
  EXPECT_EQ(a.total_moves, b.total_moves);
  EXPECT_DOUBLE_EQ(a.cost, b.cost);
  EXPECT_DOUBLE_EQ(a.wirelength, b.wirelength);
}

TEST(StitchWatchdog, WallClockBudgetFires) {
  const Device dev = xc7z020_model();
  const StitchProblem problem = small_problem();
  StitchOptions opts;
  opts.moves_per_temp = 100;
  opts.cooling = 0.8;
  opts.max_seconds = 1e-9;  // expires immediately
  const StitchResult r = stitch(dev, problem, opts);
  EXPECT_TRUE(r.watchdog_fired);
  EXPECT_EQ(r.positions.size(), problem.instances.size());
}

}  // namespace
}  // namespace mf
