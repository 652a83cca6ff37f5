#include "flow/tool_run.hpp"

#include <sstream>

#include "common/check.hpp"
#include "common/fault_draw.hpp"
#include "common/rng.hpp"
#include "common/supervise.hpp"

namespace mf {

const char* to_string(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::None: return "none";
    case FaultKind::Crash: return "crash";
    case FaultKind::Timeout: return "timeout";
    case FaultKind::SpuriousInfeasible: return "spurious-infeasible";
  }
  return "?";
}

const char* to_string(FlowErrorKind kind) noexcept {
  switch (kind) {
    case FlowErrorKind::None: return "none";
    case FlowErrorKind::ToolCrash: return "tool-crash";
    case FlowErrorKind::ToolTimeout: return "tool-timeout";
    case FlowErrorKind::Infeasible: return "infeasible";
    case FlowErrorKind::NoPBlock: return "no-pblock";
    case FlowErrorKind::DegradedExhausted: return "degraded-exhausted";
  }
  return "?";
}

std::string to_string(const FlowError& error) {
  std::ostringstream out;
  out << to_string(error.kind) << " block=" << error.block << " cf=" << error.cf
      << " attempts=" << error.attempts;
  return out.str();
}

FaultInjector::FaultInjector(const FaultInjectorOptions& opts) : opts_(opts) {
  MF_CHECK_MSG(fault_probabilities_valid({opts.p_crash, opts.p_timeout,
                                          opts.p_spurious_infeasible}),
               "fault probabilities must be >= 0 and sum to <= 1");
}

FaultKind FaultInjector::draw(std::string_view block, int ordinal) const {
  if (!opts_.enabled) return FaultKind::None;
  // Pure hash of (seed, block, ordinal): the decision stream of one block is
  // independent of every other block's, so chaos runs replay bit-identically
  // under any interleaving (and later, any parallel schedule).
  std::uint64_t state = opts_.seed;
  state ^= splitmix64(state) ^ fnv1a64(block);
  state ^= splitmix64(state) ^ static_cast<std::uint64_t>(ordinal);
  const std::uint64_t word = splitmix64(state);
  const double u = static_cast<double>(word >> 11) * 0x1.0p-53;
  constexpr FaultKind kBuckets[] = {FaultKind::Crash, FaultKind::Timeout,
                                    FaultKind::SpuriousInfeasible,
                                    FaultKind::None};
  return kBuckets[fault_pick(
      u, {opts_.p_crash, opts_.p_timeout, opts_.p_spurious_infeasible})];
}

ToolRunner::ToolRunner(const ToolRunnerOptions& opts)
    : opts_(opts), injector_(opts.fault) {
  MF_CHECK_MSG(opts.retry.max_attempts_per_check >= 1,
               "a check needs at least one attempt");
  MF_CHECK_MSG(opts.retry.retry_budget_per_block >= 0,
               "retry budget must be non-negative");
}

ToolRunner::ToolRunner(const ToolRunner& other)
    : opts_(other.opts_), injector_(other.injector_) {
  for (std::size_t s = 0; s < kShards; ++s) {
    std::lock_guard<std::mutex> lock(other.shards_[s].mutex);
    shards_[s].blocks = other.shards_[s].blocks;
  }
}

ToolRunner& ToolRunner::operator=(const ToolRunner& other) {
  if (this == &other) return *this;
  opts_ = other.opts_;
  injector_ = other.injector_;
  for (std::size_t s = 0; s < kShards; ++s) {
    std::map<std::string, BlockState> copy;
    {
      std::lock_guard<std::mutex> lock(other.shards_[s].mutex);
      copy = other.shards_[s].blocks;
    }
    std::lock_guard<std::mutex> lock(shards_[s].mutex);
    shards_[s].blocks = std::move(copy);
  }
  return *this;
}

ToolRunner::Shard& ToolRunner::shard_of(std::string_view block)
    const noexcept {
  return shards_[fnv1a64(block) % kShards];
}

ToolRunner::BlockState& ToolRunner::state_of(const std::string& block) const {
  Shard& shard = shard_of(block);
  std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.blocks[block];  // std::map nodes never move on insert
}

ToolRunStats ToolRunner::stats() const {
  // Per-block contributions are schedule-independent, and the (shard, name)
  // summation order depends only on the block names present, so the
  // aggregate -- including the floating-point backoff_ms sum -- is
  // bit-identical at any thread count.
  ToolRunStats total;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [name, state] : shard.blocks) {
      total.invocations += state.stats.invocations;
      total.completed += state.stats.completed;
      total.crashes += state.stats.crashes;
      total.timeouts += state.stats.timeouts;
      total.spurious += state.stats.spurious;
      total.retries += state.stats.retries;
      total.backoff_ms += state.stats.backoff_ms;
    }
  }
  return total;
}

int ToolRunner::retries_used(const std::string& block) const {
  Shard& shard = shard_of(block);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.blocks.find(block);
  return it == shard.blocks.end() ? 0 : it->second.retries_used;
}

long ToolRunner::invocations_for(const std::string& block) const {
  Shard& shard = shard_of(block);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.blocks.find(block);
  return it == shard.blocks.end() ? 0 : it->second.stats.invocations;
}

void ToolRunner::grant_fresh_budget(const std::string& block) {
  state_of(block).retries_used = 0;
}

ToolRunner::CheckOutcome ToolRunner::run_check(
    const std::string& block, double cf,
    const std::function<PlaceResult()>& check) {
  // Contract: all checks for one block come from a single task, so `state`
  // is mutated without the shard lock (the lock only guards the map).
  BlockState& state = state_of(block);
  CheckOutcome outcome;
  for (;;) {
    const int ordinal = state.ordinal++;
    ++state.stats.invocations;
    ++outcome.attempts;
    const FaultKind fault = injector_.draw(block, ordinal);
    if (fault == FaultKind::Crash || fault == FaultKind::Timeout) {
      if (fault == FaultKind::Crash) {
        ++state.stats.crashes;
      } else {
        ++state.stats.timeouts;
      }
      const bool check_exhausted =
          outcome.attempts >= opts_.retry.max_attempts_per_check;
      const bool block_exhausted =
          state.retries_used >= opts_.retry.retry_budget_per_block;
      if (check_exhausted || block_exhausted) {
        outcome.error.kind = fault == FaultKind::Crash
                                 ? FlowErrorKind::ToolCrash
                                 : FlowErrorKind::ToolTimeout;
        outcome.error.block = block;
        outcome.error.cf = cf;
        outcome.error.attempts = outcome.attempts;
        return outcome;
      }
      ++state.retries_used;
      ++state.stats.retries;
      // Capped exponential backoff, accounted rather than slept: attempt 1
      // waits base, attempt 2 waits base*2, ... up to the cap.
      state.stats.backoff_ms +=
          capped_backoff_ms(opts_.retry.backoff_base_ms,
                            opts_.retry.backoff_cap_ms, outcome.attempts);
      continue;
    }
    // The invocation completes and yields a verdict: one paper tool run.
    outcome.place = check();
    ++state.stats.completed;
    if (fault == FaultKind::SpuriousInfeasible && outcome.place.feasible) {
      ++state.stats.spurious;
      outcome.place.feasible = false;
      outcome.place.fail_reason = "injected: spurious infeasible verdict";
    }
    outcome.completed = true;
    return outcome;
  }
}

}  // namespace mf
