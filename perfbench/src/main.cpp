// macroflow benchmark program.
//
//   macroflow_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--work-dir <dir>] [--inject label|response]
//
// Sets the workload up kSetups times (the median is setup_s), then measures
// it: untraced for the end-to-end metrics, or traced for the per-layer ones.
// Prints a table for people and, as the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the metrics the run measured; perfbench/run.py checks them against
// BENCHMARK.json and puts them in its order.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "common/parse_num.hpp"

namespace {

using namespace bench;

constexpr int kSetups = 3;

/// The workloads BENCHMARK.json lists. Any other name is refused before
/// the work directory, which is named after the workload, is touched.
constexpr std::array<const char*, 3> kWorkloads = {
    "label_sweep", "cnv_flow_z045", "serve_estimate"};

std::unique_ptr<Workload> make_workload(const Config& cfg) {
  if (cfg.workload == "label_sweep") return make_label_sweep(cfg);
  if (cfg.workload == "cnv_flow_z045") return make_cnv_flow(cfg);
  if (cfg.workload == "serve_estimate") return make_serve_estimate(cfg);
  throw std::invalid_argument("unknown workload '" + cfg.workload + "'");
}

Config parse_args(int argc, char** argv) {
  Config cfg;
  cfg.work_dir = ".bench_build/work";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      if (std::find(kWorkloads.begin(), kWorkloads.end(), value) ==
          kWorkloads.end()) {
        throw std::invalid_argument("unknown workload '" + value + "'");
      }
      cfg.workload = value;
    } else if (flag == "--seed") {
      const auto seed = mf::parse_number<std::uint64_t>(value);
      if (!seed) throw std::invalid_argument("bad --seed " + value);
      cfg.seed = *seed;
    } else if (flag == "--seconds") {
      const auto seconds = mf::parse_number<double>(value);
      if (!seconds || *seconds <= 0.0) {
        throw std::invalid_argument("bad --seconds " + value);
      }
      cfg.seconds = *seconds;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      cfg.trace = value == "1";
    } else if (flag == "--work-dir") {
      cfg.work_dir = value;
    } else if (flag == "--inject") {
      if (value != "label" && value != "response") {
        throw std::invalid_argument("--inject takes label or response");
      }
      cfg.inject = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (cfg.workload.empty()) throw std::invalid_argument("--workload missing");
  return cfg;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-30s %18.6f %-14s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(),
                m.better.empty() ? "" : (m.better + " is better").c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  try {
    cfg = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "macroflow_bench: %s\n", e.what());
    return 2;
  }

  try {
    cfg.work_dir += "/" + cfg.workload;
    std::filesystem::remove_all(cfg.work_dir);
    std::filesystem::create_directories(cfg.work_dir);

    // Set-up, kSetups times; the last instance is measured.
    std::vector<double> setup_s;
    std::unique_ptr<Workload> workload;
    for (int i = 0; i < kSetups; ++i) {
      workload.reset();
      const Clock::time_point t0 = Clock::now();
      workload = make_workload(cfg);
      setup_s.push_back(seconds_since(t0));
    }

    Report report;
    if (cfg.trace) {
      workload->run_traced(cfg, report);
    } else {
      workload->run(cfg, report);
      report.add("setup_s", median(setup_s), "s");
    }
    workload.reset();
    if (!cfg.trace) report.add("peak_rss_mb", peak_rss_mb(), "MiB");

    std::printf("workload %s  seed %llu  seconds %g  trace %d\n",
                cfg.workload.c_str(),
                static_cast<unsigned long long>(cfg.seed), cfg.seconds,
                cfg.trace ? 1 : 0);
    print_table("workload detail:", report.detail);
    const double error_rate =
        report.attempted > 0 ? static_cast<double>(report.failed) /
                                   static_cast<double>(report.attempted)
                             : 1.0;
    std::printf("  %-30s %18.6f %-14s lower is better\n", "error_rate",
                error_rate, "failed/op");
    std::printf("  %-30s %18ld\n", "attempted", report.attempted);
    std::printf("  %-30s %016llx\n", "output_digest",
                static_cast<unsigned long long>(report.digest));
    for (const std::string& why : report.failures) {
      std::printf("FAILED: %s\n", why.c_str());
    }

    const bool correct = report.failed == 0 && report.attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": {",
                correct ? "true" : "false", std::max(1L, report.attempted),
                report.failed);
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
      const Metric& m = report.metrics[i];
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("}}\n");
    return 0;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "macroflow_bench: %s\n", e.what());
    return 1;
  }
}
