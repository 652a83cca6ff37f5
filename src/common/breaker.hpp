#pragma once
// Consecutive-failure circuit breaker (DESIGN.md section 9).
//
// The one breaker behind the serving tier: EstimatorService keeps one per
// model name in front of the registry, ServeClient keeps one in front of
// the daemon. The clock is passed in as `now`, so a test can drive every
// transition with a synthetic clock.
//
// Closed until `threshold` consecutive failures, then open for `cooldown`:
// allow() fails fast. Once the cooldown has passed, allow() lets exactly
// one call through as the half-open probe and pushes the retry time forward
// by another cooldown, so concurrent callers keep failing fast while that
// probe runs. A success closes the breaker and forgets the failures; a
// failure while open (a failed probe) re-arms it for another cooldown.
//
// Not synchronised: a breaker shared by threads lives under its owner's
// lock.

#include <chrono>

namespace mf {

class Breaker {
 public:
  using Clock = std::chrono::steady_clock;

  /// What one recorded failure did to the breaker.
  enum class Transition { None, Opened, Rearmed };

  /// `threshold` <= 0 disables the breaker: allow() always passes and no
  /// failure opens it.
  Breaker(int threshold, double cooldown_seconds)
      : threshold_(threshold), cooldown_seconds_(cooldown_seconds) {}

  /// Whether a call may proceed at `now`; false means fail fast.
  bool allow(Clock::time_point now) {
    if (!open_) return true;
    if (now < retry_at_) return false;
    retry_at_ = after_cooldown(now);  // this call is the half-open probe
    return true;
  }

  /// Record a failed call that ended at `now`.
  Transition on_failure(Clock::time_point now) {
    if (threshold_ <= 0) return Transition::None;
    ++consecutive_;
    if (!open_ && consecutive_ < threshold_) return Transition::None;
    const Transition transition =
        open_ ? Transition::Rearmed : Transition::Opened;
    open_ = true;
    retry_at_ = after_cooldown(now);
    return transition;
  }

  /// Record a successful call: close and forget the failures.
  void on_success() noexcept {
    consecutive_ = 0;
    open_ = false;
  }

 private:
  // Converted only once the breaker opens: a disabled breaker never reads
  // its cooldown, which callers therefore need not validate.
  Clock::time_point after_cooldown(Clock::time_point now) const {
    return now + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(cooldown_seconds_));
  }

  int threshold_;
  double cooldown_seconds_;
  int consecutive_ = 0;
  bool open_ = false;
  Clock::time_point retry_at_{};
};

}  // namespace mf
