// label_sweep: label modules of the 2,000-module dataset sweep with their
// minimal feasible CF on the xc7z020 (find_min_cf, start 0.9, step 0.02),
// then save and reload the labels.
//
// Each pass labels a stratified draw of the sweep -- one module from every
// run of kStride alike specs, picked by the seed -- and consecutive passes
// draw without replacement, so every pass covers the whole design space in
// the same proportions. A run of 29 s or more labels every module of the
// sweep once, in an order and pass grouping set by the seed.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>

#include "bench.hpp"
#include "common/rng.hpp"
#include "fabric/catalog.hpp"
#include "flow/serialize.hpp"
#include "replay.hpp"
#include "rtlgen/sweep.hpp"
#include "synth/optimize.hpp"
#include "training.hpp"

namespace bench {
namespace {

constexpr std::size_t kStride = 20;  ///< untraced pass: 100 of 2,000 specs
constexpr std::size_t kTraceStride = 10;  ///< traced op set: 200 specs
constexpr std::size_t kWarmupStride = 20;  ///< set-up labels 100 specs
constexpr int kRounds = 2;  ///< timed runs of every op
/// Passes per second of run length, capped at one epoch (the whole sweep).
constexpr double kPassesPerSecond = 0.6;

/// One module's label plus what the checks need.
struct Label {
  mf::LabeledModule sample;
  bool found = false;
  int tool_runs = 0;
  mf::PBlock pblock;
  long cells = 0;
};

void digest_label(Digest& digest, const Label& label) {
  digest.str(label.sample.name);
  digest.i64(label.found ? 1 : 0);
  digest.f64(label.sample.min_cf);
  digest.i64(label.tool_runs);
  digest.i64(label.pblock.col_lo);
  digest.i64(label.pblock.col_hi);
  digest.i64(label.pblock.row_lo);
  digest.i64(label.pblock.row_hi);
}

class LabelSweep final : public Workload {
 public:
  LabelSweep()
      : device_(mf::xc7z020_model()),
        sweep_(mf::dataset_sweep()),
        order_(strata_order(sweep_)) {
    // Warm-up: label the first spec of every run of kWarmupStride, the same
    // specs for every seed, so set-up work does not depend on the seed.
    for (std::size_t i = 0; i < sweep_.size(); i += kWarmupStride) {
      mf::Module synth;
      (void)label_one(sweep_[i], synth);
    }
  }

  void run(const Config& cfg, Report& report) override {
    // Round 0 labels the run's passes, checking every output; later rounds
    // label the same passes again and must reproduce them bit for bit. An
    // op's time is its fastest of kRounds runs, which filters the machine's
    // sub-second noise bursts out of the figures. The op count is fixed by
    // the run length, not by how fast the ops go.
    struct Pass {
      std::vector<std::size_t> specs;
      std::vector<Label> labels;
      std::vector<std::string> why;
      std::vector<double> ms;
      double io_s = 0.0;  ///< save + reload
    };
    std::vector<Pass> passes;
    const long count = std::clamp(std::lround(cfg.seconds * kPassesPerSecond),
                                  1L, static_cast<long>(kStride));
    for (int p = 0; p < count; ++p) {
      Pass pass;
      pass.specs = pass_specs(cfg.seed, p);
      for (std::size_t index : pass.specs) {
        mf::Module synth;
        const Clock::time_point t0 = Clock::now();
        pass.labels.push_back(label_one(sweep_[index], synth));
        pass.ms.push_back(1e3 * seconds_since(t0));
        pass.why.push_back(check_label(synth, pass.labels.back()));
      }
      const Clock::time_point t0 = Clock::now();
      const std::optional<std::vector<mf::LabeledModule>> reloaded =
          save_and_reload(cfg, pass.labels, nullptr);
      pass.io_s = seconds_since(t0);
      if (cfg.inject == "label" && p == 0) {
        pass.labels.front().sample.min_cf += 0.02;  // self-test: corrupt one
      }
      check_reload(pass.labels, reloaded, pass.why);
      passes.push_back(std::move(pass));
    }
    for (int round = 1; round < kRounds; ++round) {
      for (Pass& pass : passes) {
        std::vector<Label> again;
        for (std::size_t i = 0; i < pass.specs.size(); ++i) {
          mf::Module synth;
          const Clock::time_point t0 = Clock::now();
          again.push_back(label_one(sweep_[pass.specs[i]], synth));
          pass.ms[i] = std::min(pass.ms[i], 1e3 * seconds_since(t0));
          if (pass.why[i].empty()) {
            pass.why[i] = compare(pass.labels[i], again[i]);
          }
        }
        const Clock::time_point t0 = Clock::now();
        (void)save_and_reload(cfg, again, nullptr);
        pass.io_s = std::min(pass.io_s, seconds_since(t0));
      }
    }

    std::vector<double> op_ms;
    double busy_s = 0.0;
    double tool_runs = 0.0;
    Digest digest;
    for (const Pass& pass : passes) {
      for (std::size_t i = 0; i < pass.specs.size(); ++i) {
        report.op(pass.why[i]);
        digest_label(digest, pass.labels[i]);
        tool_runs += pass.labels[i].tool_runs;
        op_ms.push_back(pass.ms[i]);
        busy_s += 1e-3 * pass.ms[i];
      }
      busy_s += pass.io_s;
    }
    const std::size_t n = op_ms.size();
    const double q = tail_quantile(n);
    report.add("ops_per_s", static_cast<double>(n) / busy_s, "1/s");
    report.add("op_ms_p50", median(op_ms), "ms");
    report.add("op_ms_tail", percentile(op_ms, q), "ms");
    report.note("label_modules_per_s", static_cast<double>(n) / busy_s,
                "modules/s", "higher");
    report.note("label_ms_p50", median(op_ms), "ms", "lower");
    report.note("label_ms_tail", percentile(op_ms, q), "ms", "lower");
    report.note("label_ms_tail.percentile", 100.0 * q, "%");
    report.note("label_ms_tail.samples", static_cast<double>(n), "count");
    report.note("tool_runs", n > 0 ? tool_runs / static_cast<double>(n) : 0.0,
                "checks/module", "lower");
    report.digest = digest.value();
  }

  void run_traced(const Config& cfg, Report& report) override {
    const std::vector<std::size_t> draw =
        stratified_draw(order_, cfg.seed, "trace", kTraceStride);

    // Untraced pass over the op set: the reference outputs and wall time
    // (the checks run between the timed calls).
    std::vector<Label> labels;
    std::vector<std::string> why;
    double untraced_s = 0.0;
    for (std::size_t index : draw) {
      mf::Module synth;
      const Clock::time_point t0 = Clock::now();
      labels.push_back(label_one(sweep_[index], synth));
      untraced_s += seconds_since(t0);
      why.push_back(check_label(synth, labels.back()));
    }
    const Clock::time_point t0 = Clock::now();
    const std::optional<std::vector<mf::LabeledModule>> first_reload =
        save_and_reload(cfg, labels, nullptr);
    untraced_s += seconds_since(t0);
    check_reload(labels, first_reload, why);

    // Traced replay of the same op set.
    Tracer tracer;
    OracleCounters counters;
    std::vector<Label> replayed;
    long cells = 0;
    const Clock::time_point t1 = Clock::now();
    for (std::size_t i = 0; i < draw.size(); ++i) {
      tracer.set_op(static_cast<long>(i));
      Scope op(&tracer, "op");
      replayed.push_back(replay_one(&tracer, counters, sweep_[draw[i]]));
      cells += replayed.back().cells;
    }
    tracer.set_op(-1);
    const std::optional<std::vector<mf::LabeledModule>> reloaded =
        save_and_reload(cfg, replayed, &tracer);
    const double traced_s = seconds_since(t1);

    std::vector<std::string> replay_why = why;
    check_reload(replayed, reloaded, replay_why);
    long mismatches = 0;
    Digest digest;
    for (std::size_t i = 0; i < draw.size(); ++i) {
      digest_label(digest, labels[i]);
      std::string w = replay_why[i];
      if (w.empty()) w = compare(labels[i], replayed[i]);
      if (!w.empty() && why[i].empty()) ++mismatches;
      report.op(w);
    }
    report.digest = digest.value();

    const std::map<std::string, SpanTotals> totals = span_totals({&tracer});
    const double op_wall = dump_spans({&tracer}, cfg.work_dir + "/spans.tsv");
    add_span_shares(report, totals, op_wall);
    counters.add_metrics(report);
    report.add("trace.ops", static_cast<double>(draw.size()), "count");
    report.add("trace.overhead_share", traced_s / untraced_s - 1.0, "share");
    report.add("trace.replay_mismatches", static_cast<double>(mismatches),
               "count");
    report.add("quality.tool_runs",
               static_cast<double>(counters.tool_runs) /
                   static_cast<double>(draw.size()),
               "count");
    report.add("rtlgen.cells", static_cast<double>(cells), "count");
    report.add("synth.calls",
               static_cast<double>(totals.at("synth.optimize").calls), "count");
    report.add("flow.bytes", static_cast<double>(last_bytes_), "bytes");
  }

 private:
  /// The untraced op: realize -> optimize/report -> quick_place ->
  /// find_min_cf. `synth` receives the synthesized module for the checks.
  Label label_one(const mf::GenSpec& spec, mf::Module& synth) const {
    Label label;
    synth = mf::realize(spec);
    label.cells = static_cast<long>(synth.netlist.num_cells());
    mf::optimize(synth.netlist);
    label.sample.name = synth.name;
    label.sample.report = mf::make_report(synth.netlist);
    label.sample.shape = mf::quick_place(label.sample.report);
    const mf::CfSearchResult found =
        mf::find_min_cf(synth, label.sample.report, label.sample.shape,
                        device_, search_);
    label.found = found.found;
    label.tool_runs = found.tool_runs;
    if (found.found) {
      label.sample.min_cf = found.min_cf;
      label.pblock = found.pblock;
    }
    return label;
  }

  /// The same op rebuilt from public calls, one span per call.
  Label replay_one(Tracer* tracer, OracleCounters& counters,
                   const mf::GenSpec& spec) const {
    Label label;
    mf::Module synth;
    {
      Scope span(tracer, "rtlgen.realize");
      synth = mf::realize(spec);
    }
    label.cells = static_cast<long>(synth.netlist.num_cells());
    label.sample.name = synth.name;
    {
      Scope span(tracer, "synth.optimize");
      mf::optimize(synth.netlist);
      label.sample.report = mf::make_report(synth.netlist);
    }
    {
      Scope span(tracer, "place.quick");
      label.sample.shape = mf::quick_place(label.sample.report);
    }
    const SearchOutcome found =
        replay_min_cf(tracer, counters, synth, label.sample.report,
                      label.sample.shape, device_, search_);
    label.found = found.found;
    label.tool_runs = found.tool_runs;
    if (found.found) {
      label.sample.min_cf = found.cf;
      label.pblock = found.pblock;
    }
    return label;
  }

  /// Pass p of the untraced run. Every kStride passes form one epoch: a
  /// seeded permutation inside each run of kStride consecutive entries of
  /// order_, pass k of the epoch taking the k-th member of every run. An
  /// epoch thus labels the whole sweep once, and each pass is a stratified
  /// draw of it.
  std::vector<std::size_t> pass_specs(std::uint64_t seed, int p) const {
    mf::Rng epoch(mf::task_seed(seed, "epoch:" + std::to_string(p / kStride)));
    std::vector<std::size_t> specs;
    std::vector<std::size_t> members(kStride);
    for (std::size_t base = 0; base + kStride <= sweep_.size();
         base += kStride) {
      for (std::size_t k = 0; k < kStride; ++k) members[k] = order_[base + k];
      epoch.shuffle(members);
      specs.push_back(members[static_cast<std::size_t>(p % kStride)]);
    }
    mf::Rng order(mf::task_seed(seed, "pass:" + std::to_string(p)));
    order.shuffle(specs);
    return specs;
  }

  /// Save the found labels and load them back (flow/serialize).
  std::optional<std::vector<mf::LabeledModule>> save_and_reload(
      const Config& cfg, const std::vector<Label>& labels, Tracer* tracer) {
    std::vector<mf::LabeledModule> samples;
    for (const Label& label : labels) {
      if (label.found) samples.push_back(label.sample);
    }
    const std::string path = cfg.work_dir + "/labels.gt";
    bool saved = false;
    {
      Scope span(tracer, "flow.save");
      saved = mf::save_ground_truth(path, samples);
    }
    if (!saved) return std::nullopt;
    std::error_code ec;
    last_bytes_ = static_cast<long>(std::filesystem::file_size(path, ec));
    Scope span(tracer, "flow.load");
    return mf::load_ground_truth(path);
  }

  /// Each found label must be feasible at its PBlock, and the previous
  /// distinct PBlock of the CF sweep (if any) must be infeasible.
  std::string check_label(const mf::Module& synth, const Label& label) const {
    if (!label.found) return "";
    const std::string& name = label.sample.name;
    const mf::PlaceResult at = mf::place_in_pblock(
        synth, label.sample.report, device_, label.pblock, search_.place);
    if (!at.feasible) return name + ": infeasible at its own PBlock";
    // Walk the sweep's CF sequence back from the label.
    std::vector<double> cfs;
    for (double cf = search_.start; cf < label.sample.min_cf - 1e-9;
         cf += search_.step) {
      cfs.push_back(cf);
    }
    for (auto it = cfs.rbegin(); it != cfs.rend(); ++it) {
      const std::optional<mf::PBlock> pb =
          mf::generate_pblock(device_, label.sample.report, label.sample.shape,
                              *it, search_.pblock);
      if (!pb || *pb == label.pblock) continue;
      const mf::PlaceResult before = mf::place_in_pblock(
          synth, label.sample.report, device_, *pb, search_.place);
      if (before.feasible) {
        return name + ": feasible at the previous distinct PBlock";
      }
      break;
    }
    return "";
  }

  /// The reloaded labels must equal the in-memory ones byte for byte.
  static void check_reload(
      const std::vector<Label>& labels,
      const std::optional<std::vector<mf::LabeledModule>>& reloaded,
      std::vector<std::string>& why) {
    if (!reloaded) {
      for (std::string& w : why) {
        if (w.empty()) w = "labels failed to save or reload";
      }
      return;
    }
    std::size_t next = 0;
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (!labels[i].found) continue;
      const mf::LabeledModule* back =
          next < reloaded->size() ? &(*reloaded)[next] : nullptr;
      ++next;
      if (back == nullptr ||
          mf::ground_truth_to_text({*back}) !=
              mf::ground_truth_to_text({labels[i].sample})) {
        if (why[i].empty()) {
          why[i] = labels[i].sample.name + ": reloaded label differs";
        }
      }
    }
    if (next != reloaded->size()) {
      for (std::string& w : why) {
        if (w.empty()) w = "reloaded label count differs";
      }
    }
  }

  static std::string compare(const Label& a, const Label& b) {
    if (a.found != b.found || a.tool_runs != b.tool_runs ||
        !(a.pblock == b.pblock) ||
        std::memcmp(&a.sample.min_cf, &b.sample.min_cf, sizeof(double)) != 0) {
      return a.sample.name + ": traced replay differs from find_min_cf";
    }
    return "";
  }

  mf::Device device_;
  std::vector<mf::GenSpec> sweep_;
  std::vector<std::size_t> order_;  ///< strata_order(sweep_)
  mf::CfSearchOptions search_;  ///< the paper's start 0.9, step 0.02
  long last_bytes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_label_sweep(const Config&) {
  return std::make_unique<LabelSweep>();
}

}  // namespace bench
