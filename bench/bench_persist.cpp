// Persistence bench: the text tier vs the binary tier (common/binfile) for
// the three persisted artifact kinds. Two claims are measured and *checked*,
// not just timed -- a violated invariant aborts via MF_CHECK, and the ctest
// entry (`--quick`) relies on that to turn this into a correctness gate:
//
//   1. loading a 100k-row ground-truth dataset from the binary format is
//      >= 10x faster than loading the same rows from text (the point of the
//      binary tier: bulk section reads instead of per-line istringstream
//      parsing);
//   2. text -> binary -> text is *byte-identical* for all three formats
//      (ground truth, module cache, model bundle), which is what makes
//      `macroflow convert` a safe migration in either direction. This only
//      holds because every text double goes through the shortest-round-trip
//      formatter in common/parse_num.hpp.
//
// Results land in BENCH_PERSIST.json (save/load wall ms per format, the
// speedup, file sizes) next to a human-readable table on stdout. Plain
// main, like bench_serve: a fixed A/B comparison, not a BM_ sweep.

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "flow/rw_flow.hpp"
#include "flow/serialize.hpp"
#include "ml/dataset.hpp"
#include "serve/bundle.hpp"

#include "bench_common.hpp"

namespace {

using namespace mf;

/// Deterministic synthetic labelled samples. Serialization cost does not
/// care how labels were produced, so 100k rows are generated directly (a
/// real 100k-module sweep would dominate the bench with flow time). The
/// doubles deliberately include awkward values (0.1 steps, tiny offsets)
/// so the byte-identity gate exercises shortest-round-trip formatting.
std::vector<LabeledModule> make_samples(std::size_t n) {
  Rng rng(2026);
  std::vector<LabeledModule> samples(n);
  for (std::size_t i = 0; i < n; ++i) {
    LabeledModule& s = samples[i];
    s.name = "synth_mod_" + std::to_string(i);
    s.min_cf = 0.1 + 0.01 * static_cast<double>(i % 190) +
               rng.uniform(0.0, 1e-9);
    NetlistStats& st = s.report.stats;
    st.luts = static_cast<int>(rng.uniform(1.0, 4000.0));
    st.ffs = static_cast<int>(rng.uniform(1.0, 4000.0));
    st.carry4 = static_cast<int>(rng.uniform(0.0, 64.0));
    st.srls = static_cast<int>(rng.uniform(0.0, 128.0));
    st.lutrams = static_cast<int>(rng.uniform(0.0, 128.0));
    st.bram18 = i % 7 == 0 ? 2 : 0;
    st.bram36 = i % 11 == 0 ? 1 : 0;
    st.dsp = i % 5 == 0 ? 3 : 0;
    st.cells = st.luts + st.ffs;
    st.control_sets = static_cast<int>(rng.uniform(1.0, 40.0));
    st.max_fanout = static_cast<int>(rng.uniform(1.0, 900.0));
    const int chains = static_cast<int>(i % 4);
    for (int c = 0; c < chains; ++c) {
      st.carry_chains.push_back(static_cast<int>(rng.uniform(1.0, 30.0)));
    }
    s.report.slices_for_luts = (st.luts + 3) / 4;
    s.report.slices_for_ffs = (st.ffs + 7) / 8;
    s.report.slices_for_carry = st.carry4;
    s.report.est_slices = s.report.slices_for_luts;
    s.report.est_slices_m = (st.srls + st.lutrams + 3) / 4;
    s.report.bram36 = st.bram36_equiv();
    s.report.dsp = st.dsp;
    s.shape.bbox_w = 1 + static_cast<int>(i % 40);
    s.shape.bbox_h = 1 + static_cast<int>(i % 25);
    s.shape.min_height = 1 + st.longest_chain();
    s.shape.carry_columns = chains;
  }
  return samples;
}

/// A cache entry with every persisted field exercised (mirrors the
/// robustness tests' fake_block).
ImplementedBlock fake_block(const std::string& name, int salt) {
  ImplementedBlock b;
  b.name = name;
  b.status = salt % 2 == 0 ? FlowStatus::Ok : FlowStatus::Degraded;
  b.seed_cf = 1.5 + 0.1 * salt;
  b.first_run_success = salt % 2 == 0;
  b.attempts = 1 + salt % 3;
  b.macro.name = name;
  b.macro.cf = 1.25 + 0.05 * salt;
  b.macro.fill_ratio = 0.5 + 1e-3 * (salt % 100);
  b.macro.tool_runs = 2 + salt % 4;
  b.macro.used_slices = 30 + salt;
  b.macro.est_slices = 28 + salt;
  b.macro.pblock = PBlock{1 + salt % 8, 3 + salt % 8, 0, 5};
  b.macro.footprint.height = 6;
  b.macro.footprint.kinds = {ColumnKind::ClbL, ColumnKind::ClbM};
  return b;
}

/// A trained (cheap) bundle for the bundle byte-identity leg.
ModelBundle tiny_bundle() {
  Dataset data;
  data.feature_names = feature_names(FeatureSet::Classical);
  Rng rng(7);
  for (std::size_t i = 0; i < 60; ++i) {
    std::vector<double> row(data.feature_names.size());
    double target = 0.4;
    for (std::size_t j = 0; j < row.size(); ++j) {
      row[j] = j % 2 == 0 ? rng.uniform(0.0, 4000.0) : rng.uniform(0.0, 1.0);
      target += row[j] * (j % 3 == 0 ? 2.5e-4 : 0.05);
    }
    data.add(std::move(row), target, "s" + std::to_string(i));
  }
  CfEstimator::Options options;
  options.dtree.max_depth = 6;
  ModelBundle bundle;
  bundle.name = "bench-persist";
  bundle.provenance.seed = 7;
  bundle.provenance.dataset_rows = 60;
  bundle.provenance.holdout_mean_rel_err = 0.1;  // awkward in binary, easy here
  bundle.estimator =
      CfEstimator(EstimatorKind::DecisionTree, FeatureSet::Classical, options);
  bundle.estimator.train(data);
  return bundle;
}

/// Best-of-N wall seconds for `fn`; `prepare` runs before each rep, outside
/// the timed region.
template <typename Fn, typename Prep = void (*)()>
double best_of(int reps, Fn&& fn, Prep&& prepare = [] {}) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    prepare();
    mf::Timer timer;
    fn();
    const double s = timer.seconds();
    if (rep == 0 || s < best) best = s;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  mf::bench::banner(
      "persistence: text vs binary tier (ground truth / cache / bundle)",
      "infrastructure gate, no paper counterpart; targets: binary load >= "
      "10x text load at 100k rows, text<->binary byte-identical");

  // The gate is defined at 100k rows in both modes; --quick merely trims
  // the repetition count.
  const std::size_t n_rows = 100000;
  const int reps = quick ? 5 : 7;
  const std::vector<LabeledModule> samples = make_samples(n_rows);

  // -- ground truth: the scale leg ----------------------------------------
  std::string text;
  const double text_save_s = best_of(reps, [&] {
    text = ground_truth_to_text(samples);
  });
  std::string binary;
  const double bin_save_s = best_of(reps, [&] {
    binary = ground_truth_to_binary(samples);
  });

  // The holders are cleared *outside* the timed region: tearing down the
  // previous rep's 100k-sample vector costs milliseconds and belongs to
  // neither format's load time.
  std::optional<std::vector<LabeledModule>> from_text;
  const double text_load_s = best_of(reps, [&] {
    from_text = ground_truth_from_text(text);
  }, [&] { from_text.reset(); });
  MF_CHECK_MSG(from_text && from_text->size() == n_rows,
               "text ground truth failed to load");
  std::optional<std::vector<LabeledModule>> from_binary;
  const double bin_load_s = best_of(reps, [&] {
    from_binary = ground_truth_from_binary(binary);
  }, [&] { from_binary.reset(); });
  MF_CHECK_MSG(from_binary && from_binary->size() == n_rows,
               "binary ground truth failed to load");

  const double speedup = bin_load_s > 0.0 ? text_load_s / bin_load_s : 0.0;
  std::printf("%-28s %12s %12s %10s\n", "ground truth (100k rows)", "text",
              "binary", "ratio");
  std::printf("%-28s %10.1f MB %9.1f MB %9.2fx\n", "file size",
              static_cast<double>(text.size()) / 1e6,
              static_cast<double>(binary.size()) / 1e6,
              static_cast<double>(text.size()) /
                  static_cast<double>(binary.size()));
  std::printf("%-28s %10.1f ms %9.1f ms %9.2fx\n", "save", text_save_s * 1e3,
              bin_save_s * 1e3, text_save_s / bin_save_s);
  std::printf("%-28s %10.1f ms %9.1f ms %9.2fx\n", "load", text_load_s * 1e3,
              bin_load_s * 1e3, speedup);
  std::printf("binary load speedup: %.1fx (acceptance target >= 10x)\n",
              speedup);
  std::fflush(stdout);  // a failing gate must leave its timings in the log
  MF_CHECK_MSG(speedup >= 10.0,
               "binary ground-truth load must beat text by >= 10x");

  // -- byte-identity: text -> binary -> text, all three formats -----------
  // Ground truth: parse the text, re-encode via binary, and re-serialise;
  // every byte must survive (the lossless-conversion contract).
  MF_CHECK_MSG(ground_truth_to_text(*from_binary) == text,
               "ground truth text->binary->text must be byte-identical");

  ModuleCache cache;
  for (int i = 0; i < 500; ++i) {
    cache.restore(fake_block("blk_" + std::to_string(i), i));
  }
  const std::string cache_text = module_cache_to_text(cache);
  ModuleCache cache_rt;
  const CacheLoadStats stats =
      module_cache_from_binary(module_cache_to_binary(cache), cache_rt);
  MF_CHECK_MSG(stats.complete && stats.corrupted == 0,
               "binary module cache failed to load");
  MF_CHECK_MSG(module_cache_to_text(cache_rt) == cache_text,
               "module cache text->binary->text must be byte-identical");

  const ModelBundle bundle = tiny_bundle();
  const std::string bundle_text = bundle_to_text(bundle);
  const std::optional<ModelBundle> bundle_rt =
      bundle_from_binary(bundle_to_binary(bundle));
  MF_CHECK_MSG(bundle_rt.has_value(), "binary bundle failed to load");
  MF_CHECK_MSG(bundle_to_text(*bundle_rt) == bundle_text,
               "model bundle text->binary->text must be byte-identical");
  std::printf("text<->binary byte-identity: ground truth OK, module cache "
              "OK, model bundle OK\n");

  std::string json;
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      " \"rows\": %zu,\n"
      " \"text_bytes\": %zu,\n \"binary_bytes\": %zu,\n"
      " \"text_save_ms\": %.3f,\n \"binary_save_ms\": %.3f,\n"
      " \"text_load_ms\": %.3f,\n \"binary_load_ms\": %.3f,\n"
      " \"load_speedup\": %.1f,\n \"byte_identical_formats\": 3\n",
      n_rows, text.size(), binary.size(), text_save_s * 1e3, bin_save_s * 1e3,
      text_load_s * 1e3, bin_load_s * 1e3, speedup);
  json += buf;
  if (!mf::bench::write_bench_json("BENCH_PERSIST.json", json)) return 1;
  return 0;
}
