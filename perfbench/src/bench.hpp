#pragma once
// Shared pieces of the macroflow benchmark: run configuration, the per-run
// report, sample statistics, the output digest, and the span recorder used
// by traced runs.
//
// Layers are measured only from outside: every span wraps one call into a
// public function of the macroflow library, made from the benchmark's own
// files. Spans stay in memory until the run ends.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace bench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test hook: corrupt one output ("label" or "response") before it
  /// reaches the checker, so the failure accounting itself is tested.
  std::string inject;
  /// Scratch directory for saved labels, the daemon socket and span dumps.
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string better;  ///< "lower" | "higher" | "" (informational)
};

/// Everything one run reports. `metrics` is what the last output line
/// carries (end-to-end metrics untraced, per-layer metrics traced; run.py
/// checks and orders them against BENCHMARK.json); `detail` is printed
/// beside them for people.
struct Report {
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> detail;
  std::vector<std::string> failures;  ///< first few failure reasons
  std::uint64_t digest = 0;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit), ""});
  }
  void note(std::string name, double value, std::string unit,
            std::string better = "") {
    detail.push_back({std::move(name), value, std::move(unit),
                      std::move(better)});
  }
  /// Count one attempted op; `why` non-empty marks it failed.
  void op(const std::string& why) {
    ++attempted;
    if (why.empty()) return;
    ++failed;
    if (failures.size() < 20) failures.push_back(why);
  }
};

// -- sample statistics -------------------------------------------------------

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample.
inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  return values[static_cast<std::size_t>(rank + 0.5)];
}

inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// The highest percentile with at least ten of `n` samples beyond it (the
/// median when there are too few samples for a tail).
inline double tail_quantile(std::size_t n) {
  return std::max(0.5, 1.0 - 10.0 / static_cast<double>(std::max<std::size_t>(n, 1)));
}

// -- output digest -----------------------------------------------------------

/// FNV-1a over the outputs a workload computed, so two commits can be
/// compared for bit-identity without editing the benchmark.
class Digest {
 public:
  void str(const std::string& s) { bytes_.append(s.c_str(), s.size() + 1); }
  void i64(std::int64_t v) { raw(v); }
  void f64(double v) { raw(v); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return mf::fnv1a64(bytes_);
  }

 private:
  template <typename T>
  void raw(T v) {
    char buf[sizeof(T)];
    std::memcpy(buf, &v, sizeof(T));
    bytes_.append(buf, sizeof(T));
  }

  std::string bytes_;
};

// -- spans -------------------------------------------------------------------

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index into the same tracer's spans, -1 = root
  long op = -1;     ///< op id shared by every span of one operation
};

/// Per-thread span recorder. Not thread-safe: one Tracer per thread.
class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch = Clock::now()) : epoch_(epoch) {}

  void set_op(long op) { op_ = op; }
  int begin(const char* name) {
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.op = op_;
    span.start_ns = now_ns();
    spans_.push_back(span);
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void end(int index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    stack_.pop_back();
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  Clock::time_point epoch_;
  long op_ = -1;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span around one call; a null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer ? tracer->begin(name) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// Per span name: calls, summed duration and self time (duration minus the
/// part covered by child spans), in seconds.
struct SpanTotals {
  long calls = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

std::map<std::string, SpanTotals> span_totals(
    const std::vector<const Tracer*>& tracers);

/// Write every span as one tab-separated line (op, name, parent, start, end)
/// and print the self-time table. Returns the summed root ("op") duration.
double dump_spans(const std::vector<const Tracer*>& tracers,
                  const std::string& path);

// -- workloads ---------------------------------------------------------------

/// One workload. Construction is its set-up (inputs, training, daemon
/// start, warm-up); destruction tears it down. run() measures untraced;
/// run_traced() replays a fixed, seed-determined op set with spans.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void run(const Config& cfg, Report& report) = 0;
  virtual void run_traced(const Config& cfg, Report& report) = 0;
};

std::unique_ptr<Workload> make_label_sweep(const Config& cfg);
std::unique_ptr<Workload> make_cnv_flow(const Config& cfg);
std::unique_ptr<Workload> make_serve_estimate(const Config& cfg);

/// Fill every per-layer share metric from the span totals of a traced op
/// set whose root spans sum to `op_wall_s`.
void add_span_shares(Report& report,
                     const std::map<std::string, SpanTotals>& totals,
                     double op_wall_s);

}  // namespace bench
