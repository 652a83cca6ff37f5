// macroflow command-line interface.
//
// Subcommands:
//   devices                    -- list the device catalog
//   sweep [N]                  -- enumerate the RTL dataset specs
//   implement <module> [--cf X | --min] [--verilog out.v]
//                              -- implement one dataset module (by sweep
//                                 name) or a cnvW1A1 block (by block name)
//   estimate <module>          -- predict the module's CF with a registry
//                                 bundle (training + saving one on a miss)
//   train                      -- train a CF estimator and store it as a
//                                 model bundle (file or registry)
//   predict <module>           -- answer from a stored bundle, never
//                                 retraining
//   cnv [--xdc out.xdc] [--dot out.dot]
//                              -- run the cnvW1A1 flow and export artefacts
//   convert <input> <output> [--to text|binary]
//                              -- migrate a persisted artifact (ground
//                                 truth, module cache, or model bundle)
//                                 between the text and binary formats;
//                                 the artifact kind and source format are
//                                 auto-detected, and the default target is
//                                 the opposite of the source
//   serve (--socket PATH | --stdio) [...]
//                              -- long-running estimator serving daemon: a
//                                 line protocol (ESTIMATE/INFO/STATS/PING/
//                                 TRACE) over a Unix socket or stdin/stdout,
//                                 with cross-request batch coalescing,
//                                 per-client quotas, hot reload, canary
//                                 rollout, and per-request trace ids; with
//                                 --supervised a tiny supervisor owns the
//                                 listening socket and respawns crashed or
//                                 wedged daemon children, so a kill -9 under
//                                 load costs clients only a retry
//   ping --socket PATH         -- one resilient-client PING against a
//                                 serving daemon (0 = pong, 2 = unreachable
//                                 within --deadline-seconds)
//   farm --dir DIR [...]       -- supervise a multi-process dataset farm:
//                                 shard the sweep deterministically, spawn
//                                 worker processes (this binary re-executed
//                                 with --farm-worker), respawn crashed or
//                                 hung workers, quarantine poison shards,
//                                 and merge the shard checkpoints into a
//                                 dataset bit-identical to a single-process
//                                 run
//
// Exit status (uniform across subcommands, asserted by tests/cli_exit_codes.sh):
//   0   -- success
//   1   -- usage / user error (unknown flag, bad value, unknown module)
//   2   -- runtime failure (flow found no solution, file not writable)
//   130 -- cancelled: SIGINT/SIGTERM or an expired --deadline-seconds.
//          A first SIGINT cancels cooperatively (running work drains and
//          checkpoints); a second hard-exits with the same status.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/binfile.hpp"
#include "common/cancel.hpp"
#include "common/fault_draw.hpp"
#include "common/parse_num.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/cf_search.hpp"
#include "core/estimator.hpp"
#include "core/features.hpp"
#include "fabric/catalog.hpp"
#include "farm/supervisor.hpp"
#include "farm/worker.hpp"
#include "flow/ground_truth.hpp"
#include "flow/rw_flow.hpp"
#include "flow/serialize.hpp"
#include "netlist/writer.hpp"
#include "nn/cnv_w1a1.hpp"
#include "serve/bundle.hpp"
#include "serve/registry.hpp"
#include "serve/service.hpp"
#include "serve/trainer.hpp"
#include "srv/client.hpp"
#include "srv/server.hpp"
#include "srv/supervised.hpp"
#include "synth/optimize.hpp"

namespace {

using namespace mf;

// Documented exit codes (keep in sync with the header comment, usage(), and
// tests/cli_exit_codes.sh).
constexpr int kExitOk = 0;
constexpr int kExitUsage = 1;
constexpr int kExitRuntime = 2;
constexpr int kExitCancelled = 130;

/// Process-wide cancellation token: tripped by SIGINT/SIGTERM (installed in
/// main) or by --deadline-seconds, polled by every long-running stage.
CancelToken g_cancel;

int usage() {
  std::fputs(
      "usage: macroflow_cli <command> [options]\n"
      "  devices\n"
      "  sweep [N]\n"
      "  implement <module> [--cf X | --min] [--verilog FILE]\n"
      "  estimate <module> [--jobs N] [--seed S] [--registry DIR]\n"
      "           [--socket PATH]\n"
      "  train [--kind linreg|mlp|dtree|rforest|gboost] [--name NAME]\n"
      "        [--count N] [--trees N] [--seed S] [--jobs N]\n"
      "        [--deadline-seconds S] [--out FILE | --registry DIR]\n"
      "  predict <module> (--model FILE | --name NAME [--registry DIR]\n"
      "          [--socket PATH])\n"
      "  cnv [--xdc FILE] [--dot FILE] [--jobs N] [--model FILE-or-NAME]\n"
      "      [--stitch-engine sa|evo] [--stitch-restarts K]\n"
      "      [--stitch-jobs N] [--stitch-population N] [--checkpoint FILE]\n"
      "      [--deadline-seconds S]\n"
      "  convert <input> <output> [--to text|binary]\n"
      "  serve (--socket PATH | --stdio) [--registry DIR] [--jobs N]\n"
      "        [--coalesce-us U] [--max-batch N] [--queue-capacity N]\n"
      "        [--quota-rate R] [--quota-burst B] [--canary-percent P]\n"
      "        [--canary-fail-threshold N] [--canary-promote-after N]\n"
      "        [--reload-poll-seconds S] [--stats-json FILE]\n"
      "        [--stats-interval S] [--max-connections N] [--max-loaded N]\n"
      "        [--deadline-seconds S] [--supervised] [--listen-fd N]\n"
      "  ping --socket PATH [--deadline-seconds S]\n"
      "  farm --dir DIR [--count N] [--seed S] [--grid A,B,C]\n"
      "       [--workers N] [--shards N] [--worker-jobs N]\n"
      "       [--checkpoint-every N] [--max-attempts N]\n"
      "       [--hang-timeout-seconds S] [--deadline-seconds S] [--quiet]\n"
      "       [--chaos-kill P] [--chaos-hang P] [--chaos-slow P]\n"
      "       [--chaos-faults N] [--chaos-seed S]\n"
      "--jobs: worker threads (1 = sequential, 0 = all hardware threads);\n"
      "results are bit-identical at any value.\n"
      "--deadline-seconds: end-to-end wall-clock budget; on expiry (or\n"
      "SIGINT) the run drains in-flight work, checkpoints what finished\n"
      "(cnv with --checkpoint), and exits with status 130.\n"
      "--checkpoint: module-cache file; loaded before the cnv flow and\n"
      "rewritten (atomically) after it, so a cancelled run resumes with its\n"
      "completed blocks and recomputes only the rest.\n"
      "exit codes: 0 success, 1 usage error, 2 runtime failure,\n"
      "130 cancelled.\n"
      "convert: migrate a ground-truth, module-cache, or model-bundle file\n"
      "between text and binary (kind and source format auto-detected;\n"
      "--to defaults to the opposite of the source). Conversion refuses\n"
      "incomplete or corrupt inputs: migration must be lossless.\n"
      "--seed: estimator training seed (default 3).\n"
      "--registry: model-bundle directory (default $MACROFLOW_MODEL_DIR or\n"
      "./macroflow-models). `estimate` serves a matching bundle from it and\n"
      "only trains (then saves) on a miss; `predict` never trains.\n"
      "--stitch-engine: stitch placement engine, 'sa' (simulated annealing,\n"
      "the default) or 'evo' (evolutionary search). Unknown names are an\n"
      "error, never a silent fallback.\n"
      "--stitch-restarts: independent runs of the engine, lowest cost wins\n"
      "with ties to the lowest restart (default 1 = the single-start run).\n"
      "--stitch-jobs: worker threads for the restarts (same 0/1 semantics\n"
      "and bit-identical guarantee as --jobs).\n"
      "--stitch-population: evolutionary population size (>= 2,\n"
      "default 12).\n"
      "serve: answers 'ESTIMATE <client> <model> <f1..fN>' lines with\n"
      "'OK <cf>' / 'ERR <code> <reason>'; also INFO <model>, STATS, PING,\n"
      "and TRACE <id> (per-request queue wait, batch size, and predict\n"
      "latency for a request stamped 'id=<client>:<seq>').\n"
      "Requests from all connections coalesce into one predict batch per\n"
      "--coalesce-us window (bit-identical to sequential answers); the\n"
      "registry is rescanned every --reload-poll-seconds, and with\n"
      "--canary-percent P a newer bundle version first serves P% of\n"
      "clients, auto-promoted after --canary-promote-after successes or\n"
      "rolled back after --canary-fail-threshold failures. stdio mode\n"
      "serves stdin/stdout and exits 0 at EOF; SIGINT drains and exits\n"
      "130.\n"
      "--supervised: a supervisor process binds and keeps the socket while\n"
      "daemon children (this binary re-executed with --listen-fd) serve on\n"
      "it; crashed or heartbeat-stale children are respawned with capped\n"
      "backoff, and connections made during a respawn park in the listen\n"
      "backlog instead of being refused.\n"
      "ping/predict/estimate --socket: talk to a running daemon through\n"
      "the resilient client (retries with backoff, trace ids, automatic\n"
      "reconnect); predict/estimate extract the module's features locally\n"
      "for the feature set the daemon reports and print the exact served\n"
      "CF.\n"
      "farm: the merged dataset lands in DIR/ground_truth.gt (one file per\n"
      "--grid value when several are given); rerunning over the same DIR\n"
      "resumes completed shards. Crashed/hung workers respawn from their\n"
      "checkpoints; a shard that keeps dying is quarantined (exit 2, the\n"
      "merged output covers the surviving shards). --chaos-* enable seeded\n"
      "fault injection in the workers for testing the supervisor; the kill,\n"
      "hang and slow probabilities must sum to at most 1.\n",
      stderr);
  return 1;
}

// -- the flag table ----------------------------------------------------------
// Each verb declares its flags as one table read by parse_flags(). std::atof/
// atoi silently turn a malformed value into 0 (and a flag given last would
// read past argv); numeric values instead go through the shared
// common/parse_num.hpp from_chars wrappers (full consumption, range, no
// wrapping), and a bad option exits non-zero with a message naming the flag.

/// Thrown to end the run at a bad flag; main() returns `code`.
struct ExitWith {
  int code;
};

/// One command-line flag. `apply` stores the flag's value (nullptr for a
/// switch), or reports a bad one and throws ExitWith.
struct Flag {
  const char* name;
  bool takes_value;
  std::function<void(const char*)> apply;
  /// serve --supervised passes the flag verbatim to the daemon child.
  bool forward = true;
};

/// Store a parsed value through a pointer, or hand it to a setter.
template <typename Sink, typename T>
void store(const Sink& sink, T value) {
  if constexpr (std::is_pointer_v<Sink>) {
    *sink = static_cast<std::remove_pointer_t<Sink>>(value);
  } else {
    sink(value);
  }
}

template <typename Sink>
Flag int_flag(const char* name, int min, int max, Sink sink) {
  return {name, true, [=](const char* text) {
            const std::optional<int> value = parse_number<int>(text, min, max);
            if (!value) {
              std::fprintf(stderr,
                           "invalid value '%s' for %s (expected %d..%d)\n",
                           text, name, min, max);
              throw ExitWith{kExitUsage};
            }
            store(sink, *value);
          }};
}

template <typename Sink>
Flag double_flag(const char* name, double min, double max, Sink sink) {
  return {name, true, [=](const char* text) {
            const std::optional<double> value = parse_double_text(text);
            if (!value || !(*value >= min && *value <= max)) {
              std::fprintf(stderr,
                           "invalid value '%s' for %s (expected %g..%g)\n",
                           text, name, min, max);
              throw ExitWith{kExitUsage};
            }
            store(sink, *value);
          }};
}

Flag text_flag(const char* name, std::string* out) {
  return {name, true, [out](const char* text) { *out = text; }};
}

Flag switch_flag(const char* name, bool* out) {
  return {name, false, [out](const char*) { *out = true; }};
}

/// A flag the serve supervisor keeps instead of forwarding to its child.
Flag supervisor_only(Flag flag) {
  flag.forward = false;
  return flag;
}

/// The shared --deadline-seconds: an end-to-end budget on g_cancel. Under
/// serve --supervised the supervisor's deadline governs teardown.
Flag deadline_flag() {
  return supervisor_only(double_flag(
      "--deadline-seconds", 0.0, 1e9,
      [](double seconds) { g_cancel.set_deadline_seconds(seconds); }));
}

/// Parse argv[first, argc) against `flags`, in order, stopping at the first
/// error with ExitWith: an unknown flag prints the usage text, a value flag
/// given last reports the missing value (both exit 1). `forwarded`, when
/// given, collects the words of every forwardable flag.
void parse_flags(int argc, char** argv, int first,
                 const std::vector<Flag>& flags,
                 std::vector<std::string>* forwarded = nullptr) {
  for (int i = first; i < argc; ++i) {
    const std::string_view word = argv[i];
    const auto flag =
        std::find_if(flags.begin(), flags.end(),
                     [&](const Flag& f) { return word == f.name; });
    if (flag == flags.end()) throw ExitWith{usage()};
    const char* value = nullptr;
    if (flag->takes_value) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag->name);
        throw ExitWith{kExitUsage};
      }
      value = argv[++i];
    }
    flag->apply(value);
    if (forwarded != nullptr && flag->forward) {
      forwarded->emplace_back(word);
      if (value != nullptr) forwarded->emplace_back(value);
    }
  }
}

bool write_file(const std::string& path, const std::string& content) {
  // Atomic temp+rename with stream-state checks: exported artefacts are
  // either complete or absent, and ENOSPC surfaces as a failure.
  return atomic_write_file(path, content);
}

/// Look the module up in the dataset sweep first, then in cnvW1A1.
std::optional<Module> find_module(const std::string& name) {
  for (const GenSpec& spec : dataset_sweep({2000, 42})) {
    if (spec.name == name) return realize(spec);
  }
  const CnvDesign design = build_cnv_w1a1();
  const int idx = design.unique_index(name);
  if (idx >= 0) {
    return design.unique_modules[static_cast<std::size_t>(idx)];
  }
  return std::nullopt;
}

int cmd_devices() {
  Table table({"device", "slices", "M slices", "RAMB36", "DSP48", "grid"});
  for (const Device& dev : {xc7z020_model(), xc7z045_model()}) {
    table.row()
        .cell(dev.name())
        .cell(dev.totals().slices)
        .cell(dev.totals().slices_m)
        .cell(dev.totals().bram36)
        .cell(dev.totals().dsp)
        .cell(std::to_string(dev.num_columns()) + "x" +
              std::to_string(dev.rows()));
  }
  table.print();
  return 0;
}

int cmd_sweep(int count) {
  const std::vector<GenSpec> specs = dataset_sweep({count, 42});
  Table table({"name", "kind"});
  for (const GenSpec& spec : specs) {
    table.row().cell(spec.name).cell(to_string(spec.kind));
  }
  table.print();
  return 0;
}

int cmd_implement(const std::string& name, std::optional<double> cf,
                  bool min_search, const std::string& verilog_path) {
  const std::optional<Module> found = find_module(name);
  if (!found) {
    std::fprintf(stderr, "unknown module '%s'\n", name.c_str());
    return 1;
  }
  Module module = *found;
  optimize(module.netlist);
  const ResourceReport report = make_report(module.netlist);
  const ShapeReport shape = quick_place(report);
  const Device dev = xc7z020_model();

  std::printf("%s: %d LUTs, %d FFs, %d CARRY4, %d SRL/RAM, est %d slices\n",
              name.c_str(), report.stats.luts, report.stats.ffs,
              report.stats.carry4, report.stats.m_lut_cells(),
              report.est_slices);

  PBlock pblock;
  PlaceResult place;
  double used_cf = 0.0;
  if (min_search || !cf) {
    CfSearchOptions opts;
    opts.start = 0.5;
    const CfSearchResult result =
        find_min_cf(module, report, shape, dev, opts);
    if (!result.found) {
      std::fprintf(stderr, "no feasible CF found\n");
      return 2;
    }
    pblock = result.pblock;
    place = result.place;
    used_cf = result.min_cf;
    std::printf("minimal CF: %.2f (%d tool runs)\n", used_cf,
                result.tool_runs);
  } else {
    const auto pb = generate_pblock(dev, report, shape, *cf);
    if (!pb) {
      std::fprintf(stderr, "no PBlock at CF %.2f\n", *cf);
      return 2;
    }
    place = place_in_pblock(module, report, dev, *pb, {});
    if (!place.feasible) {
      std::fprintf(stderr, "infeasible at CF %.2f: %s\n", *cf,
                   place.fail_reason.c_str());
      return 2;
    }
    pblock = *pb;
    used_cf = *cf;
  }
  std::printf("PBlock %s, %d used slices, fill ratio %.2f\n",
              to_string(pblock).c_str(), place.used_slices, place.fill_ratio);

  if (!verilog_path.empty()) {
    if (!write_file(verilog_path, write_verilog(module))) {
      std::fprintf(stderr, "cannot write %s\n", verilog_path.c_str());
      return 2;
    }
    std::printf("structural netlist written to %s\n", verilog_path.c_str());
  }
  return 0;
}

/// Registry directory: --registry beats $MACROFLOW_MODEL_DIR beats ./.
std::string default_registry_dir(const std::string& flag_value) {
  if (!flag_value.empty()) return flag_value;
  const char* env = std::getenv("MACROFLOW_MODEL_DIR");
  if (env != nullptr && env[0] != '\0') return env;
  return "macroflow-models";
}

/// Apply the checked --seed flag to every family's training stream. The
/// sub-seeds are derived (not copied) so different families trained from
/// the same flag value still draw independent streams.
void apply_seed(CfEstimator::Options& options, std::uint64_t seed) {
  options.seed = seed;
  options.rforest.seed = task_seed(seed, "cli:rforest");
  options.mlp.seed = task_seed(seed, "cli:mlp");
  options.gboost.seed = task_seed(seed, "cli:gboost");
}

void print_bundle_info(const ModelBundle& bundle) {
  const BundleProvenance& p = bundle.provenance;
  std::printf("bundle '%s' v%d: %s on %s, seed %llu, %lld train rows",
              bundle.name.c_str(), bundle.version,
              to_string(bundle.estimator.kind()),
              to_string(bundle.estimator.features()),
              static_cast<unsigned long long>(p.seed),
              static_cast<long long>(p.dataset_rows));
  if (p.holdout_rows > 0) {
    std::printf(", holdout mean rel. err %.1f%% (median %.1f%%)",
                100.0 * p.holdout_mean_rel_err,
                100.0 * p.holdout_median_rel_err);
  }
  std::printf("\n");
}

int cmd_estimate(const std::string& name, int jobs, std::uint64_t seed,
                 const std::string& registry_dir) {
  const std::optional<Module> found = find_module(name);
  if (!found) {
    std::fprintf(stderr, "unknown module '%s'\n", name.c_str());
    return 1;
  }
  Module module = *found;
  optimize(module.netlist);
  const ResourceReport report = make_report(module.netlist);
  const ShapeReport shape = quick_place(report);
  const Device dev = xc7z020_model();

  // Registry first: retraining the estimator for every invocation is the
  // exact cost the serving layer exists to remove. The bundle name encodes
  // the training seed so --seed never serves a mismatched model.
  const std::string model_name = "cli-rforest-s" + std::to_string(seed);
  ModelRegistry registry(default_registry_dir(registry_dir));
  ResolveStats resolve_stats;
  std::optional<ModelBundle> bundle =
      registry.resolve(model_name, FeatureSet::All,
                       EstimatorKind::RandomForest, &resolve_stats);
  Timer timer;
  if (bundle) {
    std::printf("estimator source: registry %s (no retraining)\n",
                registry.dir().c_str());
  } else {
    if (resolve_stats.corrupt > 0) {
      std::fprintf(stderr, "warning: %d corrupt bundle(s) skipped: %s\n",
                   resolve_stats.corrupt, resolve_stats.last_error.c_str());
    }
    std::printf("estimator source: trained from scratch (no bundle named "
                "'%s' in %s); ~15 s at --jobs 1\n",
                model_name.c_str(), registry.dir().c_str());
    TrainSpec spec;
    spec.name = model_name;
    spec.kind = EstimatorKind::RandomForest;
    spec.features = FeatureSet::All;
    spec.options.rforest.trees = 200;
    apply_seed(spec.options, seed);
    spec.jobs = jobs;
    bundle = train_bundle(spec, dev);
    if (const auto entry = registry.put(*bundle)) {
      std::printf("saved bundle to %s for future runs\n",
                  entry->path.c_str());
    } else {
      std::fprintf(stderr, "warning: could not write bundle into %s\n",
                   registry.dir().c_str());
    }
  }
  print_bundle_info(*bundle);

  const double predicted = bundle->estimator.estimate(report, shape);
  std::printf("ready in %.1fs\npredicted CF for '%s': %.3f\n",
              timer.seconds(), name.c_str(), predicted);

  CfSearchOptions opts;
  opts.start = 0.5;
  const CfSearchResult actual = find_min_cf(module, report, shape, dev, opts);
  if (actual.found) {
    std::printf("actual minimal CF: %.2f (error %.1f%%)\n", actual.min_cf,
                100.0 * std::abs(predicted - actual.min_cf) / actual.min_cf);
  }
  return 0;
}

int cmd_train(const std::string& kind_text, const std::string& model_name,
              int count, int trees, std::uint64_t seed, int jobs,
              const std::string& out_path, const std::string& registry_dir) {
  const std::optional<EstimatorKind> kind =
      estimator_kind_from_string(kind_text);
  if (!kind) {
    std::fprintf(stderr, "unknown estimator kind '%s'\n", kind_text.c_str());
    return 1;
  }
  TrainSpec spec;
  spec.name = model_name;
  spec.kind = *kind;
  spec.features = *kind == EstimatorKind::LinearRegression
                      ? FeatureSet::LinReg9
                      : FeatureSet::All;
  spec.dataset_count = count;
  spec.options.rforest.trees = trees;
  apply_seed(spec.options, seed);
  spec.jobs = jobs;
  // Forest training honours the global deadline/SIGINT token; cancellation
  // surfaces as CancelledError and exits 130 from main (a partial forest is
  // not a resumable artifact, so there is nothing to checkpoint).
  spec.options.rforest.cancel = &g_cancel;

  std::printf("training %s on a %d-spec sweep (seed %llu)...\n",
              to_string(*kind), count,
              static_cast<unsigned long long>(seed));
  Timer timer;
  const ModelBundle bundle = train_bundle(spec, xc7z020_model());
  std::printf("trained in %.1fs\n", timer.seconds());

  if (!out_path.empty()) {
    if (!save_bundle(out_path, bundle)) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 2;
    }
    std::printf("bundle written to %s\n", out_path.c_str());
    print_bundle_info(bundle);
    return 0;
  }
  ModelRegistry registry(default_registry_dir(registry_dir));
  const auto entry = registry.put(bundle);
  if (!entry) {
    std::fprintf(stderr, "cannot write bundle into %s\n",
                 registry.dir().c_str());
    return 2;
  }
  std::printf("bundle stored as %s\n", entry->path.c_str());
  ModelBundle stored = bundle;
  stored.version = entry->version;
  print_bundle_info(stored);
  return 0;
}

int cmd_predict(const std::string& name, const std::string& model_path,
                const std::string& model_name,
                const std::string& registry_dir) {
  const std::optional<Module> found = find_module(name);
  if (!found) {
    std::fprintf(stderr, "unknown module '%s'\n", name.c_str());
    return 1;
  }
  Module module = *found;
  optimize(module.netlist);
  const ResourceReport report = make_report(module.netlist);
  const ShapeReport shape = quick_place(report);

  Timer timer;
  std::optional<double> predicted;
  if (!model_path.empty()) {
    std::string error;
    const std::optional<ModelBundle> bundle =
        load_bundle(model_path, &error);
    if (!bundle) {
      std::fprintf(stderr, "cannot serve %s: %s\n", model_path.c_str(),
                   error.c_str());
      return 2;
    }
    print_bundle_info(*bundle);
    predicted = bundle->estimator.estimate(report, shape);
  } else {
    EstimatorService service(default_registry_dir(registry_dir));
    predicted = service.estimate(model_name, report, shape);
    if (!predicted) {
      std::fprintf(stderr, "cannot serve '%s': %s\n", model_name.c_str(),
                   service.last_error().c_str());
      return 2;
    }
    print_bundle_info(*service.bundle(model_name));
  }
  std::printf("predicted CF for '%s': %.3f (%.0f ms, no retraining)\n",
              name.c_str(), *predicted, timer.seconds() * 1e3);
  return 0;
}

int cmd_cnv(const std::string& xdc_path, const std::string& dot_path,
            int jobs, const StitchOptions& stitch, const std::string& model,
            const std::string& registry_dir,
            const std::string& checkpoint_path) {
  // Fail fast on unusable stitch knobs -- before any flow work runs.
  if (const auto error = stitch_options_error(stitch)) {
    std::fprintf(stderr, "invalid stitch options: %s\n", error->c_str());
    return kExitRuntime;
  }
  const Device dev = xc7z020_model();
  const CnvDesign design = build_cnv_w1a1();
  if (!dot_path.empty()) {
    if (!write_file(dot_path, write_dot(design))) return kExitRuntime;
    std::printf("block diagram written to %s\n", dot_path.c_str());
  }
  RwFlowOptions opts;
  opts.compute_timing = false;
  opts.jobs = jobs;
  opts.stitch = stitch;
  opts.cancel = &g_cancel;
  opts.checkpoint_path = checkpoint_path;
  CfPolicy policy;
  policy.mode = CfPolicy::Mode::MinSearch;

  // --model swaps the exhaustive per-block min-CF search for one trained
  // estimator call per block -- the paper's headline trade. The value is a
  // bundle file first, a registry name second.
  std::optional<ModelBundle> bundle;
  if (!model.empty()) {
    std::string error;
    bundle = load_bundle(model, &error);
    if (bundle) {
      std::printf("cf policy: estimator from bundle file %s\n",
                  model.c_str());
    } else {
      const ModelRegistry registry(default_registry_dir(registry_dir));
      bundle = registry.resolve(model);
      if (!bundle) {
        std::fprintf(stderr,
                     "cannot load '%s' as a bundle file (%s) or resolve it "
                     "in registry %s\n",
                     model.c_str(), error.c_str(), registry.dir().c_str());
        return 1;
      }
      std::printf("cf policy: estimator from registry %s\n",
                  registry.dir().c_str());
    }
    print_bundle_info(*bundle);
    policy.mode = CfPolicy::Mode::Estimator;
    policy.estimator = &bundle->estimator;
  }
  Timer timer;
  RwFlowResult result;
  if (!checkpoint_path.empty()) {
    // Checkpointed flow: resume completed blocks, rewrite the checkpoint
    // after the run (ModuleCache::run does both; the write is atomic).
    ModuleCache cache;
    const CacheLoadStats loaded = load_module_cache(checkpoint_path, cache);
    if (loaded.loaded > 0 || loaded.corrupted > 0) {
      std::printf("checkpoint %s: %d block(s) resumed, %d corrupt entr%s "
                  "dropped\n",
                  checkpoint_path.c_str(), loaded.loaded, loaded.corrupted,
                  loaded.corrupted == 1 ? "y" : "ies");
    }
    result = cache.run(design, dev, policy, opts);
  } else {
    result = run_rw_flow(design, dev, policy, opts);
  }
  if (result.cancelled) {
    const std::size_t total = design.unique_modules.size();
    std::fprintf(stderr,
                 "cancelled: %zu/%zu unique blocks implemented%s\n",
                 total - static_cast<std::size_t>(result.cancelled_blocks),
                 total,
                 checkpoint_path.empty()
                     ? " (no --checkpoint: progress not persisted)"
                     : ", checkpointed -- rerun to resume");
    return kExitCancelled;
  }
  std::printf("flow: %d tool runs, %d failed blocks, %d/%zu unplaced "
              "(%.1fs)\n",
              result.total_tool_runs, result.failed_blocks,
              result.stitch.unplaced, result.problem.instances.size(),
              timer.seconds());
  if (stitch.restarts > 1) {
    std::printf("stitch multi-start: %d restarts, winner restart %d ('%s', "
                "cost %.1f)\n",
                stitch.restarts, result.stitch.restart_index,
                result.stitch.engine.c_str(), result.stitch.cost);
  }
  if (!xdc_path.empty()) {
    if (!write_file(xdc_path,
                    write_xdc(result.problem, result.stitch.positions))) {
      return kExitRuntime;
    }
    std::printf("floorplan constraints written to %s\n", xdc_path.c_str());
  }
  return kExitOk;
}

/// Comma-separated positive-double list ("0.5,0.9") for --grid.
std::optional<std::vector<double>> parse_double_list(const char* text) {
  std::vector<double> values;
  const std::string input = text;
  std::size_t begin = 0;
  while (begin <= input.size()) {
    const std::size_t comma = input.find(',', begin);
    const std::size_t end = comma == std::string::npos ? input.size() : comma;
    const std::optional<double> value =
        parse_double_text(input.substr(begin, end - begin));
    if (!value || !(*value > 0.0)) return std::nullopt;
    values.push_back(*value);
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  if (values.empty()) return std::nullopt;
  return values;
}

int cmd_farm(const FarmOptions& options) {
  Timer timer;
  const FarmResult result = run_farm(options);
  if (result.cancelled) {
    std::fprintf(stderr, "cancelled\n");
    return kExitCancelled;
  }
  for (const std::string& warning : result.merge.warnings) {
    std::fprintf(stderr, "warning: %s\n", warning.c_str());
  }
  if (!result.ok && result.shards_quarantined == 0) {
    std::fprintf(stderr, "farm failed: %s\n", result.error.c_str());
    return kExitRuntime;
  }
  std::printf(
      "farm: %d/%d shards done (%d resumed), %ld spawns (%ld respawns, "
      "%ld hung killed), %ld samples + %ld infeasible in %.1fs\n",
      result.shards_done, result.shards_total, result.shards_resumed,
      result.spawns, result.respawns, result.hung_killed, result.samples,
      result.infeasible, timer.seconds());
  for (const std::string& path : result.merged_paths) {
    std::printf("merged dataset written to %s\n", path.c_str());
  }
  if (result.shards_quarantined > 0) {
    std::fprintf(stderr, "farm degraded: %s (see %s)\n",
                 result.error.c_str(),
                 farm_quarantine_dir(options.dir).c_str());
    return kExitRuntime;
  }
  return kExitOk;
}

// -- serve ------------------------------------------------------------------

int cmd_serve(ServerOptions options) {
  options.cancel = &g_cancel;
  // Fail-fast semantic validation: a bad combination exits 2 before any
  // socket is bound or request read (never a partial listen).
  if (const std::optional<std::string> error = server_options_error(options)) {
    std::fprintf(stderr, "serve: %s\n", error->c_str());
    return kExitRuntime;
  }
  EstimatorServer server(std::move(options));
  const int code = server.run();
  if (code == kExitRuntime) {
    std::fprintf(stderr, "serve: %s\n", server.last_error().c_str());
  } else if (code == kExitCancelled) {
    std::fprintf(stderr, "cancelled\n");
  }
  return code;
}

/// `serve --supervised`: a supervisor owns the listening socket and
/// fork/execs `serve ... --listen-fd N` children (this very binary),
/// respawning on crashes and heartbeat stalls (DESIGN.md section 14). The
/// server options are validated up front so a bad flag combination exits 2
/// immediately instead of crash-looping the child against its budget.
int cmd_serve_supervised(ServerOptions options,
                         std::vector<std::string> child_args) {
  if (options.stdio || options.socket_path.empty()) {
    std::fprintf(stderr,
                 "serve: --supervised needs a socket (--socket PATH, not "
                 "--stdio)\n");
    return kExitRuntime;
  }
  if (options.listen_fd >= 0) {
    std::fprintf(
        stderr,
        "serve: --supervised and --listen-fd are mutually exclusive\n");
    return kExitRuntime;
  }
  if (const std::optional<std::string> error = server_options_error(options)) {
    std::fprintf(stderr, "serve: %s\n", error->c_str());
    return kExitRuntime;
  }
  SupervisedOptions sup;
  sup.socket_path = options.socket_path;
  sup.cancel = &g_cancel;
  // The child's stats-JSON snapshot doubles as the liveness heartbeat
  // (uptime_s changes every interval, so fresh bytes == alive); force one
  // next to the socket when the user did not ask for a snapshot file.
  double interval = options.stats_interval_seconds;
  sup.heartbeat_path = options.stats_json_path;
  if (sup.heartbeat_path.empty()) {
    interval = 0.25;
    sup.heartbeat_path = options.socket_path + ".stats.json";
    child_args.push_back("--stats-json");
    child_args.push_back(sup.heartbeat_path);
    child_args.push_back("--stats-interval");
    child_args.push_back("0.25");
  }
  sup.heartbeat_timeout_s = std::max(5.0, 20.0 * interval);
  child_args.insert(child_args.begin(), "serve");
  child_args.push_back("--listen-fd");
  child_args.push_back("{LISTEN_FD}");
  sup.child_args = std::move(child_args);
  const SupervisedResult result = run_supervised(sup);
  if (result.exit_code == kExitRuntime && !result.error.empty()) {
    std::fprintf(stderr, "serve: %s\n", result.error.c_str());
  } else if (result.exit_code == kExitCancelled) {
    std::fprintf(stderr, "cancelled\n");
  }
  return result.exit_code;
}

// -- ping / remote predict --------------------------------------------------

/// Shared resilient-client options for the CLI's daemon-facing verbs.
ClientOptions cli_client_options(const std::string& socket_path,
                                 const char* name, double deadline_s) {
  ClientOptions options;
  options.socket_path = socket_path;
  options.client_name = name;
  options.connect_deadline_s = deadline_s;
  options.request_deadline_s = deadline_s;
  options.cancel = &g_cancel;
  return options;
}

int cmd_ping(const std::string& socket_path, double deadline_s) {
  ClientOptions copts = cli_client_options(socket_path, "cli-ping",
                                           deadline_s);
  if (const std::optional<std::string> error = client_options_error(copts)) {
    std::fprintf(stderr, "ping: %s\n", error->c_str());
    return kExitUsage;
  }
  Timer timer;
  ServeClient client(std::move(copts));
  std::string error;
  if (!client.ping(&error)) {
    if (g_cancel.cancelled()) {
      std::fprintf(stderr, "cancelled\n");
      return kExitCancelled;
    }
    std::fprintf(stderr, "ping: %s unreachable: %s\n", socket_path.c_str(),
                 error.c_str());
    return kExitRuntime;
  }
  std::printf("pong from %s in %.1f ms\n", socket_path.c_str(),
              timer.seconds() * 1e3);
  return kExitOk;
}

/// predict/estimate with --socket: INFO names the served bundle's feature
/// set, the module's features are extracted locally for that set, and
/// ESTIMATE goes through the resilient client (retries, backoff, trace
/// ids), so the printed CF is the exact value the daemon served.
int cmd_remote_predict(const std::string& name,
                       const std::string& socket_path,
                       const std::string& model_name) {
  const std::optional<Module> found = find_module(name);
  if (!found) {
    std::fprintf(stderr, "unknown module '%s'\n", name.c_str());
    return kExitUsage;
  }
  Module module = *found;
  optimize(module.netlist);
  const ResourceReport report = make_report(module.netlist);
  const ShapeReport shape = quick_place(report);

  ClientOptions copts = cli_client_options(socket_path, "cli", 10.0);
  if (const std::optional<std::string> error = client_options_error(copts)) {
    std::fprintf(stderr, "predict: %s\n", error->c_str());
    return kExitUsage;
  }
  Timer timer;
  ServeClient client(std::move(copts));
  std::string error;
  const std::optional<std::string> info = client.info(model_name, &error);
  if (!info) {
    if (g_cancel.cancelled()) {
      std::fprintf(stderr, "cancelled\n");
      return kExitCancelled;
    }
    std::fprintf(stderr, "cannot serve '%s' via %s: %s\n",
                 model_name.c_str(), socket_path.c_str(), error.c_str());
    return kExitRuntime;
  }
  std::optional<FeatureSet> set;
  const std::size_t pos = info->find("features=");
  if (pos != std::string::npos) {
    std::string token = info->substr(pos + 9);
    if (const std::size_t space = token.find(' ');
        space != std::string::npos) {
      token.resize(space);
    }
    for (const FeatureSet candidate :
         {FeatureSet::Classical, FeatureSet::ClassicalStar,
          FeatureSet::Additional, FeatureSet::All, FeatureSet::LinReg9}) {
      if (token == to_string(candidate)) set = candidate;
    }
  }
  if (!set) {
    std::fprintf(stderr,
                 "predict: daemon INFO names no known feature set (%s)\n",
                 info->c_str());
    return kExitRuntime;
  }
  const std::vector<double> row = extract_features(*set, report, shape);
  const std::optional<double> cf =
      client.estimate("cli", model_name, row, &error);
  if (!cf) {
    std::fprintf(stderr, "cannot serve '%s' via %s: %s\n",
                 model_name.c_str(), socket_path.c_str(), error.c_str());
    return kExitRuntime;
  }
  const ClientStats& stats = client.stats();
  std::string suffix;
  if (stats.retries > 0) {
    suffix = ", " + std::to_string(stats.retries) +
             (stats.retries == 1 ? " retry" : " retries");
  }
  std::printf("daemon bundle: %s\n", info->c_str());
  std::printf("predicted CF for '%s': %.3f (served via %s, %.0f ms%s)\n",
              name.c_str(), *cf, socket_path.c_str(), timer.seconds() * 1e3,
              suffix.c_str());
  return kExitOk;
}

// -- convert ----------------------------------------------------------------

/// What kind of persisted artifact a file holds, detected without loading it.
enum class ArtifactKind { GroundTruth, ModuleCache, ModelBundle, Unknown };

ArtifactKind detect_kind(const std::string& bytes) {
  if (is_binfile(bytes)) {
    // The meta section names the kind; a damaged container is reported by
    // the kind-specific loader below, so be permissive here.
    std::string error;
    const std::optional<BinFile> file = BinFile::open(bytes, &error);
    if (!file) return ArtifactKind::Unknown;
    const std::optional<std::string_view> meta = file->section("meta");
    if (!meta) return ArtifactKind::Unknown;
    BinCursor cursor(*meta);
    const std::string kind = cursor.str(256);
    if (kind == "ground-truth") return ArtifactKind::GroundTruth;
    if (kind == "module-cache") return ArtifactKind::ModuleCache;
    if (kind == "model-bundle") return ArtifactKind::ModelBundle;
    return ArtifactKind::Unknown;
  }
  if (bytes.rfind("macroflow-ground-truth ", 0) == 0)
    return ArtifactKind::GroundTruth;
  if (bytes.rfind("macroflow-module-cache ", 0) == 0)
    return ArtifactKind::ModuleCache;
  if (bytes.rfind("macroflow-model-bundle ", 0) == 0)
    return ArtifactKind::ModelBundle;
  return ArtifactKind::Unknown;
}

int cmd_convert(const std::string& input_path, const std::string& output_path,
                std::optional<PersistFormat> target) {
  const std::optional<std::string> bytes = read_file(input_path);
  if (!bytes) {
    std::fprintf(stderr, "convert: cannot read %s\n", input_path.c_str());
    return kExitRuntime;
  }
  const bool source_binary = is_binfile(*bytes);
  // Default target: the opposite representation of the source.
  const PersistFormat format = target.value_or(
      source_binary ? PersistFormat::Text : PersistFormat::Binary);
  const ArtifactKind kind = detect_kind(*bytes);

  std::string out;
  std::string error = "unrecognised format";
  switch (kind) {
    case ArtifactKind::GroundTruth: {
      const std::optional<std::vector<LabeledModule>> samples =
          source_binary ? ground_truth_from_binary(*bytes, &error)
                        : ground_truth_from_text(*bytes);
      if (!samples) {
        std::fprintf(stderr, "convert: %s: corrupt ground truth (%s)\n",
                     input_path.c_str(), error.c_str());
        return kExitRuntime;
      }
      out = format == PersistFormat::Binary ? ground_truth_to_binary(*samples)
                                            : ground_truth_to_text(*samples);
      std::printf("convert: %zu ground-truth samples -> %s (%s)\n",
                  samples->size(), output_path.c_str(),
                  format == PersistFormat::Binary ? "binary" : "text");
      break;
    }
    case ArtifactKind::ModuleCache: {
      // Migration must be lossless: a cache that loads partially (dropped
      // corrupt entries) is fine for flow resume but wrong to convert --
      // the damage would be silently laundered into a clean-looking file.
      ModuleCache cache;
      const CacheLoadStats stats = source_binary
                                       ? module_cache_from_binary(*bytes, cache)
                                       : module_cache_from_text(*bytes, cache);
      if (!stats.header_ok || !stats.complete || stats.corrupted != 0) {
        std::fprintf(stderr,
                     "convert: %s: incomplete or corrupt module cache "
                     "(loaded %d, corrupted %d)\n",
                     input_path.c_str(), stats.loaded, stats.corrupted);
        return kExitRuntime;
      }
      out = format == PersistFormat::Binary ? module_cache_to_binary(cache)
                                            : module_cache_to_text(cache);
      std::printf("convert: %d cache entries -> %s (%s)\n", stats.loaded,
                  output_path.c_str(),
                  format == PersistFormat::Binary ? "binary" : "text");
      break;
    }
    case ArtifactKind::ModelBundle: {
      const std::optional<ModelBundle> bundle =
          source_binary ? bundle_from_binary(*bytes, &error)
                        : bundle_from_text(*bytes, &error);
      if (!bundle) {
        std::fprintf(stderr, "convert: %s: corrupt model bundle (%s)\n",
                     input_path.c_str(), error.c_str());
        return kExitRuntime;
      }
      out = format == PersistFormat::Binary ? bundle_to_binary(*bundle)
                                            : bundle_to_text(*bundle);
      std::printf("convert: bundle %s v%d -> %s (%s)\n",
                  bundle->name.c_str(), bundle->version, output_path.c_str(),
                  format == PersistFormat::Binary ? "binary" : "text");
      break;
    }
    case ArtifactKind::Unknown:
      std::fprintf(stderr,
                   "convert: %s is not a recognised macroflow artifact\n",
                   input_path.c_str());
      return kExitRuntime;
  }
  if (!write_file(output_path, out)) {
    std::fprintf(stderr, "convert: cannot write %s\n", output_path.c_str());
    return kExitRuntime;
  }
  return kExitOk;
}

/// Full command dispatch; main() wraps it with signal installation and the
/// CancelledError -> 130 mapping.
int dispatch(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];

  if (command == "devices") return cmd_devices();
  if (command == "sweep") {
    if (argc > 3) return usage();
    int count = 100;
    if (argc == 3) {
      const std::optional<int> parsed = parse_number<int>(argv[2]);
      if (!parsed || *parsed <= 0) {
        std::fprintf(stderr,
                     "invalid sweep size '%s' (expected a positive integer)\n",
                     argv[2]);
        return 1;
      }
      count = *parsed;
    }
    return cmd_sweep(count);
  }
  if (command == "implement") {
    if (argc < 3) return usage();
    std::optional<double> cf;
    bool min_search = false;
    std::string verilog;
    parse_flags(argc, argv, 3,
                {double_flag("--cf", 0.01, 100.0, &cf),
                 switch_flag("--min", &min_search),
                 text_flag("--verilog", &verilog)});
    return cmd_implement(argv[2], cf, min_search, verilog);
  }
  if (command == "estimate") {
    if (argc < 3) return usage();
    int jobs = MF_JOBS_DEFAULT;
    int seed = 3;  // the historical hard-coded Options::seed
    std::string registry_dir;
    std::string socket_path;
    parse_flags(argc, argv, 3,
                {int_flag("--jobs", 0, 1024, &jobs),
                 int_flag("--seed", 0, 1 << 30, &seed),
                 text_flag("--registry", &registry_dir),
                 text_flag("--socket", &socket_path)});
    if (!socket_path.empty()) {
      // Same model name cmd_estimate would resolve, but answered by a
      // running daemon instead of an in-process registry load.
      return cmd_remote_predict(argv[2], socket_path,
                                "cli-rforest-s" + std::to_string(seed));
    }
    return cmd_estimate(argv[2], jobs, static_cast<std::uint64_t>(seed),
                        registry_dir);
  }
  if (command == "train") {
    std::string kind = "rforest";
    std::string name = "default";
    int count = 2000;
    int trees = 200;
    int seed = 3;
    int jobs = MF_JOBS_DEFAULT;
    std::string out;
    std::string registry_dir;
    parse_flags(argc, argv, 2,
                {text_flag("--kind", &kind), text_flag("--name", &name),
                 int_flag("--count", 10, 100000, &count),
                 int_flag("--trees", 1, 100000, &trees),
                 int_flag("--seed", 0, 1 << 30, &seed),
                 int_flag("--jobs", 0, 1024, &jobs), text_flag("--out", &out),
                 text_flag("--registry", &registry_dir), deadline_flag()});
    return cmd_train(kind, name, count, trees,
                     static_cast<std::uint64_t>(seed), jobs, out,
                     registry_dir);
  }
  if (command == "predict") {
    if (argc < 3) return usage();
    std::string model_path;
    std::string model_name;
    std::string registry_dir;
    std::string socket_path;
    parse_flags(argc, argv, 3,
                {text_flag("--model", &model_path),
                 text_flag("--name", &model_name),
                 text_flag("--registry", &registry_dir),
                 text_flag("--socket", &socket_path)});
    if (!socket_path.empty()) {
      // The daemon serves registry bundles by name; a local --model file
      // cannot be routed through it.
      if (model_name.empty() || !model_path.empty()) {
        std::fprintf(stderr,
                     "predict --socket needs --name NAME (a registry bundle "
                     "the daemon serves), not --model\n");
        return 1;
      }
      return cmd_remote_predict(argv[2], socket_path, model_name);
    }
    if (model_path.empty() == model_name.empty()) {
      std::fprintf(stderr,
                   "predict needs exactly one of --model FILE or --name "
                   "NAME\n");
      return 1;
    }
    return cmd_predict(argv[2], model_path, model_name, registry_dir);
  }
  if (command == "cnv") {
    std::string xdc;
    std::string dot;
    int jobs = MF_JOBS_DEFAULT;
    StitchOptions stitch;
    std::string model;
    std::string registry_dir;
    std::string checkpoint;
    const Flag engine{"--stitch-engine", true, [&stitch](const char* text) {
                        const std::optional<StitchEngine> parsed =
                            stitch_engine_from_string(text);
                        if (!parsed) {
                          // A typo'd engine must fail the run (exit 2),
                          // never silently fall back to SA.
                          std::fprintf(stderr,
                                       "unknown stitch engine '%s' "
                                       "(expected sa or evo)\n",
                                       text);
                          throw ExitWith{kExitRuntime};
                        }
                        stitch.engine = *parsed;
                      }};
    parse_flags(argc, argv, 2,
                {text_flag("--xdc", &xdc), text_flag("--dot", &dot),
                 int_flag("--jobs", 0, 1024, &jobs), engine,
                 int_flag("--stitch-restarts", 1, 4096, &stitch.restarts),
                 int_flag("--stitch-jobs", 0, 1024, &stitch.jobs),
                 // Parsed permissively; population < 2 is rejected by the
                 // library's fail-fast validation in cmd_cnv (exit 2).
                 int_flag("--stitch-population", 0, 65536,
                          &stitch.evo_population),
                 text_flag("--model", &model),
                 text_flag("--registry", &registry_dir),
                 text_flag("--checkpoint", &checkpoint), deadline_flag()});
    return cmd_cnv(xdc, dot, jobs, stitch, model, registry_dir, checkpoint);
  }
  if (command == "convert") {
    if (argc < 4) return usage();
    std::optional<PersistFormat> target;
    const Flag to{"--to", true, [&target](const char* text) {
                    const std::string_view value = text;
                    if (value == "text") {
                      target = PersistFormat::Text;
                    } else if (value == "binary") {
                      target = PersistFormat::Binary;
                    } else {
                      std::fprintf(stderr,
                                   "invalid value '%s' for --to (expected "
                                   "text|binary)\n",
                                   text);
                      throw ExitWith{kExitUsage};
                    }
                  }};
    parse_flags(argc, argv, 4, {to});
    return cmd_convert(argv[2], argv[3], target);
  }
  if (command == "serve") {
    ServerOptions options;
    std::string registry_flag;
    bool supervised = false;
    // With --supervised, every flag except the supervisor-owned ones is
    // forwarded verbatim to the re-executed daemon child.
    std::vector<std::string> passthrough;
    parse_flags(argc, argv, 2,
                {text_flag("--registry", &registry_flag),
                 supervisor_only(text_flag("--socket", &options.socket_path)),
                 supervisor_only(switch_flag("--supervised", &supervised)),
                 // Internal handoff flag: the supervisor spawns children with
                 // the inherited listening descriptor's number here.
                 supervisor_only(
                     int_flag("--listen-fd", 0, 1 << 20, &options.listen_fd)),
                 switch_flag("--stdio", &options.stdio),
                 int_flag("--jobs", 0, 1024, &options.jobs),
                 int_flag("--max-loaded", 1, 4096, &options.max_loaded_bundles),
                 double_flag("--coalesce-us", 0.0, 1e7,
                             &options.coalesce.coalesce_us),
                 int_flag("--max-batch", 1, 65536, &options.coalesce.max_batch),
                 // Capacity < max-batch is a semantic error: caught by
                 // server_options_error in cmd_serve (exit 2), not here.
                 int_flag("--queue-capacity", 1, 1 << 20,
                          &options.coalesce.queue_capacity),
                 double_flag("--quota-rate", 0.0, 1e9,
                             &options.quota.rate_per_second),
                 double_flag("--quota-burst", 1.0, 1e9, &options.quota.burst),
                 int_flag("--canary-percent", 0, 100, &options.canary.percent),
                 int_flag("--canary-fail-threshold", 1, 1 << 20,
                          &options.canary.fail_threshold),
                 int_flag("--canary-promote-after", 1, 1 << 30,
                          &options.canary.promote_after),
                 double_flag("--reload-poll-seconds", 0.001, 1e6,
                             &options.reload_poll_seconds),
                 text_flag("--stats-json", &options.stats_json_path),
                 double_flag("--stats-interval", 0.001, 1e6,
                             &options.stats_interval_seconds),
                 int_flag("--max-connections", 1, 4096,
                          &options.max_connections),
                 deadline_flag()},
                &passthrough);
    options.registry_dir = default_registry_dir(registry_flag);
    if (supervised) {
      return cmd_serve_supervised(std::move(options), std::move(passthrough));
    }
    return cmd_serve(std::move(options));
  }
  if (command == "ping") {
    std::string socket_path;
    double deadline = 2.0;
    parse_flags(argc, argv, 2,
                {text_flag("--socket", &socket_path),
                 double_flag("--deadline-seconds", 0.001, 1e9, &deadline)});
    if (socket_path.empty()) {
      std::fprintf(stderr, "ping needs --socket PATH\n");
      return kExitUsage;
    }
    return cmd_ping(socket_path, deadline);
  }
  if (command == "farm") {
    FarmOptions options;
    options.cancel = &g_cancel;
    options.plan.count = 48;  // small default; real sweeps pass --count
    bool hang_timeout_set = false;
    FarmChaosOptions& chaos = options.plan.chaos;
    const Flag grid{"--grid", true, [&options](const char* text) {
                      const std::optional<std::vector<double>> parsed =
                          parse_double_list(text);
                      if (!parsed) {
                        std::fprintf(stderr,
                                     "invalid value '%s' for --grid (expected "
                                     "a comma-separated list of positive CF "
                                     "starts)\n",
                                     text);
                        throw ExitWith{kExitUsage};
                      }
                      options.plan.grid = *parsed;
                    }};
    // Any --chaos-* probability flag switches the injector on.
    const auto chaos_p = [&chaos](double* p) {
      return [&chaos, p](double value) {
        *p = value;
        chaos.enabled = true;
      };
    };
    parse_flags(argc, argv, 2,
                {text_flag("--dir", &options.dir),
                 int_flag("--count", 1, 100000, &options.plan.count),
                 int_flag("--seed", 0, 1 << 30, &options.plan.seed), grid,
                 int_flag("--workers", 1, 256, &options.workers),
                 int_flag("--shards", 1, 4096, &options.plan.shards_per_grid),
                 int_flag("--worker-jobs", 0, 1024, &options.plan.worker_jobs),
                 int_flag("--checkpoint-every", 1, 100000,
                          &options.plan.checkpoint_every),
                 int_flag("--max-attempts", 1, 1000, &options.max_attempts),
                 double_flag("--hang-timeout-seconds", 0.01, 1e6,
                             [&](double seconds) {
                               options.hang_timeout_seconds = seconds;
                               hang_timeout_set = true;
                             }),
                 deadline_flag(),
                 double_flag("--chaos-kill", 0.0, 1.0, chaos_p(&chaos.p_kill)),
                 double_flag("--chaos-hang", 0.0, 1.0, chaos_p(&chaos.p_hang)),
                 double_flag("--chaos-slow", 0.0, 1.0, chaos_p(&chaos.p_slow)),
                 int_flag("--chaos-faults", 0, 1 << 30,
                          &chaos.faults_per_shard),
                 int_flag("--chaos-seed", 0, 1 << 30, &chaos.seed),
                 switch_flag("--quiet", &options.quiet)});
    if (!fault_probabilities_valid(
            {chaos.p_kill, chaos.p_hang, chaos.p_slow})) {
      std::fprintf(stderr,
                   "farm: --chaos-kill + --chaos-hang + --chaos-slow must not "
                   "exceed 1\n");
      return kExitUsage;
    }
    if (options.dir.empty()) {
      std::fprintf(stderr, "farm needs --dir DIR\n");
      return 1;
    }
    // Hung chaos workers are detected via the heartbeat; keep the default
    // timeout tight enough that an injected hang resolves promptly.
    if (!hang_timeout_set && chaos.enabled && chaos.p_hang > 0.0) {
      options.hang_timeout_seconds = 2.0;
    }
    return cmd_farm(options);
  }
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  // Farm worker mode first: a supervisor re-executes this very binary with
  // --farm-worker, and the worker entry installs its own signal handling.
  if (const std::optional<int> code = maybe_run_farm_worker(argc, argv)) {
    return *code;
  }
  // First SIGINT/SIGTERM trips g_cancel (cooperative: work drains and
  // checkpoints), a second hard-exits 130.
  install_signal_cancel(&g_cancel);
  try {
    const int status = dispatch(argc, argv);
    // A deadline that expired after the last cancellation point still means
    // the run was cut short somewhere -- report it uniformly.
    if (status == kExitOk && g_cancel.cancelled()) {
      std::fprintf(stderr, "cancelled\n");
      return kExitCancelled;
    }
    return status;
  } catch (const CancelledError&) {
    std::fprintf(stderr, "cancelled\n");
    return kExitCancelled;
  } catch (const ExitWith& exit) {
    return exit.code;
  }
}
