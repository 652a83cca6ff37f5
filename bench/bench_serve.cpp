// Serving bench: load-once-vs-retrain and batched prediction throughput.
//
// Two claims are measured and *checked*, not just timed:
//   1. resolving a warm registry bundle is >= 10x faster than retraining
//      the same model from scratch (the point of persisting bundles), and
//      the loaded model's predictions are bit-identical to the freshly
//      trained one;
//   2. EstimatorService micro-batched prediction returns bit-identical
//      results at every `jobs` value.
// A violated invariant aborts the bench via MF_CHECK -- the ctest entry
// (`--quick`) relies on that to turn this into a correctness gate.
//
// Results land in BENCH_SERVE.json (train/load wall ms, speedup, rows/sec
// per jobs value) next to a human-readable table on stdout. Plain main,
// like bench_stitch: the train-once / compare-everything structure does
// not fit the BM_ harness.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "fabric/catalog.hpp"
#include "serve/registry.hpp"
#include "serve/service.hpp"
#include "serve/trainer.hpp"

#include "bench_common.hpp"

namespace {

using namespace mf;

/// Random feature rows with the width of `set`; prediction is pure math,
/// so synthetic rows measure throughput as well as labelled ones would.
std::vector<std::vector<double>> make_rows(FeatureSet set, std::size_t n) {
  const std::size_t dim = feature_names(set).size();
  Rng rng(1234);
  std::vector<std::vector<double>> rows(n);
  for (std::vector<double>& row : rows) {
    row.resize(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      row[j] = j % 2 == 0 ? rng.uniform(0.0, 5000.0) : rng.uniform(0.0, 1.0);
    }
  }
  return rows;
}

void check_identical(const std::vector<double>& a,
                     const std::vector<double>& b) {
  MF_CHECK(a.size() == b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    MF_CHECK(a[i] == b[i]);  // bitwise, the serving contract
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  namespace fs = std::filesystem;
  const std::string registry_dir =
      (fs::temp_directory_path() / "mf_bench_serve_registry").string();
  std::error_code ec;
  fs::remove_all(registry_dir, ec);

  const Device dev = xc7z020_model();
  TrainSpec spec;
  spec.name = "bench";
  spec.dataset_count = quick ? 250 : 500;
  spec.options.rforest.trees = quick ? 120 : 300;
  spec.jobs = 0;

  // -- cold vs warm path, best of N each ----------------------------------
  // Retrain (the full recipe: labelled sweep + forest) and warm registry
  // resolve alternate rep by rep, so both sides of the ratio see the same
  // CPU state (a host that warms up mid-run would otherwise flatter one).
  ModelRegistry registry(registry_dir);
  const int reps = quick ? 3 : 5;
  ModelBundle trained;
  double train_s = 0.0;
  double load_s = 0.0;
  std::optional<ModelBundle> loaded;
  for (int rep = 0; rep < reps; ++rep) {
    Timer train_timer;
    ModelBundle bundle = train_bundle(spec, dev);
    const double t = train_timer.seconds();
    if (rep == 0 || t < train_s) train_s = t;
    if (rep == 0) {
      trained = std::move(bundle);
      std::printf("trained '%s' (%s, %lld rows, holdout mean rel err %.3f)\n",
                  trained.name.c_str(), to_string(trained.estimator.kind()),
                  static_cast<long long>(trained.provenance.dataset_rows),
                  trained.provenance.holdout_mean_rel_err);
      MF_CHECK_MSG(registry.put(trained).has_value(),
                   "registry directory not writable");
    }
    Timer load_timer;
    loaded = registry.resolve("bench");
    const double s = load_timer.seconds();
    MF_CHECK_MSG(loaded.has_value(), "stored bundle failed to resolve");
    if (rep == 0 || s < load_s) load_s = s;
  }
  const double speedup = load_s > 0.0 ? train_s / load_s : 0.0;
  std::printf("retrain %.1f ms, warm registry load %.2f ms (best of %d "
              "each) -> %.0fx faster than retraining (acceptance target "
              ">= 10x)\n",
              train_s * 1e3, load_s * 1e3, reps, speedup);
  std::fflush(stdout);  // a failing gate must leave its timings in the log
  MF_CHECK_MSG(speedup >= 10.0,
               "warm bundle load must beat retraining by >= 10x");

  // Loaded model must predict bit-identically to the one just trained.
  const std::size_t n_rows = quick ? 2000 : 20000;
  const auto rows = make_rows(trained.estimator.features(), n_rows);
  const std::vector<double> reference = trained.estimator.predict_rows(rows);
  check_identical(reference, loaded->estimator.predict_rows(rows));

  // -- batched serving throughput, jobs swept -----------------------------
  const std::vector<int> jobs_sweep = quick ? std::vector<int>{1, 4}
                                            : std::vector<int>{1, 2, 4, 8};
  std::printf("\n%-8s %10s %12s %14s\n", "jobs", "rows", "wall ms",
              "rows/sec");
  std::vector<std::pair<int, double>> throughput;
  for (int jobs : jobs_sweep) {
    ServiceOptions options;
    options.jobs = jobs;
    EstimatorService service(registry_dir, options);
    // Warm the LRU first so the sweep times prediction, not disk.
    MF_CHECK(service.predict_rows("bench", {rows.front()}).has_value());
    Timer predict_timer;
    const auto out = service.predict_rows("bench", rows);
    const double s = predict_timer.seconds();
    MF_CHECK(out.has_value());
    check_identical(reference, *out);  // any-jobs bit-identity
    const double rows_per_sec = s > 0.0 ? static_cast<double>(n_rows) / s
                                        : 0.0;
    std::printf("%-8d %10zu %12.1f %14.0f\n", jobs, n_rows, s * 1e3,
                rows_per_sec);
    throughput.emplace_back(jobs, rows_per_sec);
  }

  std::string json;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                " \"train_ms\": %.3f,\n \"warm_load_ms\": %.3f,\n"
                " \"load_speedup\": %.1f,\n \"rows\": %zu,\n \"runs\": [",
                train_s * 1e3, load_s * 1e3, speedup, n_rows);
  json += buf;
  for (std::size_t i = 0; i < throughput.size(); ++i) {
    std::snprintf(buf, sizeof buf,
                  "%s\n  {\"jobs\": %d, \"rows_per_sec\": %.0f}",
                  i == 0 ? "" : ",", throughput[i].first,
                  throughput[i].second);
    json += buf;
  }
  json += "\n ]\n";
  std::printf("\n");
  if (!bench::write_bench_json("BENCH_SERVE.json", json)) return 1;
  fs::remove_all(registry_dir, ec);
  return 0;
}
