// cnv_flow_z045: full run_rw_flow runs of cnvW1A1 on the roomy xc7z045
// under the Section VIII Estimator policy (NN on the Additional features,
// trained in set-up), timing on.
//
// Op i builds its design with build_cnv_w1a1(task_seed(seed, "design:i"))
// before its timer starts and stitches with task_seed(seed, "stitch:i").

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>

#include "bench.hpp"
#include "fabric/catalog.hpp"
#include "flow/rw_flow.hpp"
#include "nn/cnv_w1a1.hpp"
#include "replay.hpp"
#include "synth/optimize.hpp"
#include "training.hpp"

namespace bench {
namespace {

constexpr int kRounds = 3;      ///< timed runs of every flow
constexpr int kTraceFlows = 8;  ///< traced op set
/// Flow runs per second of run length, sized so a run takes about as long
/// as asked on a 2.1 GHz x86 core.
constexpr double kRunsPerSecond = 3.3;

void digest_flow(Digest& digest, const mf::RwFlowResult& result) {
  for (const mf::ImplementedBlock& block : result.blocks) {
    digest.str(block.name);
    digest.i64(static_cast<int>(block.status));
    digest.f64(block.macro.cf);
    digest.i64(block.macro.tool_runs);
    digest.i64(block.macro.pblock.col_lo);
    digest.i64(block.macro.pblock.col_hi);
    digest.i64(block.macro.pblock.row_lo);
    digest.i64(block.macro.pblock.row_hi);
  }
  for (const mf::BlockPlacement& p : result.stitch.positions) {
    digest.i64(p.col);
    digest.i64(p.row);
  }
  digest.f64(result.stitch.cost);
}

std::uint64_t digest_of(const mf::RwFlowResult& result) {
  Digest digest;
  digest_flow(digest, result);
  return digest.value();
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Every placed instance sits on an anchor its footprint fits, no two
/// placed rectangles overlap, and placed + unplaced covers every instance.
std::string check_stitch(const mf::Device& device,
                         const mf::StitchProblem& problem,
                         const mf::StitchResult& stitch) {
  if (stitch.positions.size() != problem.instances.size()) {
    return "stitch positions do not cover the instances";
  }
  const int cols = device.num_columns();
  const int rows = device.rows();
  std::vector<char> used(static_cast<std::size_t>(cols) *
                             static_cast<std::size_t>(rows),
                         0);
  int placed = 0;
  for (std::size_t i = 0; i < problem.instances.size(); ++i) {
    const mf::BlockPlacement& at = stitch.positions[i];
    if (!at.placed()) continue;
    ++placed;
    const mf::Macro& macro =
        problem.macros[static_cast<std::size_t>(problem.instances[i].macro)];
    if (!mf::footprint_fits(device, macro.footprint, at.col, at.row,
                            macro.pblock.row_lo)) {
      return problem.instances[i].name + " placed off a legal anchor";
    }
    for (int c = at.col; c < at.col + macro.footprint.width(); ++c) {
      for (int r = at.row; r < at.row + macro.footprint.height; ++r) {
        char& cell = used[static_cast<std::size_t>(r) *
                              static_cast<std::size_t>(cols) +
                          static_cast<std::size_t>(c)];
        if (cell != 0) return problem.instances[i].name + " overlaps";
        cell = 1;
      }
    }
  }
  if (placed + stitch.unplaced != static_cast<int>(problem.instances.size())) {
    return "placed + unplaced != instances";
  }
  return "";
}

class CnvFlow final : public Workload {
 public:
  explicit CnvFlow(const Config& cfg)
      : device_(mf::xc7z045_model()),
        seed_(cfg.seed),
        trained_(train_estimator()) {
    policy_.mode = mf::CfPolicy::Mode::Estimator;
    policy_.estimator = &trained_.estimator;
    // Warm-up: one untimed flow.
    (void)mf::run_rw_flow(design(0), device_, policy_, options(0));
  }

  void run(const Config& cfg, Report& report) override {
    // Round 0 runs the run's flows and checks them; the later rounds run the
    // same flows again and must reproduce them bit for bit. A flow's time is
    // its fastest run: on a shared machine one flow's time varies by up to
    // 1.5x with the neighbours' load, in phases of seconds to minutes, and
    // the reruns, spread over the whole run, filter what falls inside it.
    // The flow count is fixed by the run length, not by how fast the flows
    // go.
    const auto timed_flow = [&](int op, double& ms) {
      const mf::BlockDesign d = design(op);
      const Clock::time_point t0 = Clock::now();
      mf::RwFlowResult result = mf::run_rw_flow(d, device_, policy_, options(op));
      ms = 1e3 * seconds_since(t0);
      return result;
    };
    std::vector<double> op_ms;
    std::vector<std::uint64_t> digests;
    std::vector<std::string> why;
    std::vector<double> unplaced;
    std::vector<double> cost;
    double tool_runs = 0.0;
    const long count =
        std::max(1L, std::lround(cfg.seconds * kRunsPerSecond / kRounds));
    for (int i = 0; i < count; ++i) {
      double ms = 0.0;
      const mf::RwFlowResult result = timed_flow(i, ms);
      op_ms.push_back(ms);
      digests.push_back(digest_of(result));
      why.push_back(check_stitch(device_, result.problem, result.stitch));
      tool_runs += result.total_tool_runs;
      unplaced.push_back(result.stitch.unplaced);
      cost.push_back(result.stitch.cost);
    }
    for (int round = 1; round < kRounds; ++round) {
      for (int i = 0; i < count; ++i) {
        double ms = 0.0;
        const std::uint64_t again = digest_of(timed_flow(i, ms));
        const auto k = static_cast<std::size_t>(i);
        op_ms[k] = std::min(op_ms[k], ms);
        if (why[k].empty() && again != digests[k]) {
          why[k] = "flow " + std::to_string(i) + " is not reproducible";
        }
      }
    }

    Digest digest;
    double busy_s = 0.0;
    for (std::size_t i = 0; i < op_ms.size(); ++i) {
      report.op(why[i]);
      digest.i64(static_cast<std::int64_t>(digests[i]));
      busy_s += 1e-3 * op_ms[i];
    }
    const std::size_t n = op_ms.size();
    const double q = tail_quantile(n);
    report.add("ops_per_s", static_cast<double>(n) / busy_s, "1/s");
    report.add("op_ms_p50", median(op_ms), "ms");
    report.add("op_ms_tail", percentile(op_ms, q), "ms");
    report.note("flow_s_p50", 1e-3 * median(op_ms), "s", "lower");
    report.note("flow_s_tail", 1e-3 * percentile(op_ms, q), "s", "lower");
    report.note("flow_s_tail.percentile", 100.0 * q, "%");
    report.note("flow_s_tail.samples", static_cast<double>(n), "count");
    report.note("tool_runs", tool_runs / static_cast<double>(n), "checks/flow",
                "lower");
    report.note("unplaced_blocks", median(unplaced), "blocks", "lower");
    report.note("stitch_cost", median(cost), "HPWL+penalty", "lower");
    report.digest = digest.value();
  }

  void run_traced(const Config& cfg, Report& report) override {
    std::vector<mf::RwFlowResult> reference;
    double untraced_s = 0.0;
    for (int i = 0; i < kTraceFlows; ++i) {
      const mf::BlockDesign d = design(i);
      const Clock::time_point t0 = Clock::now();
      reference.push_back(mf::run_rw_flow(d, device_, policy_, options(i)));
      untraced_s += seconds_since(t0);
    }

    Tracer tracer;
    OracleCounters counters;
    std::vector<Replayed> replayed;
    double traced_s = 0.0;
    for (int i = 0; i < kTraceFlows; ++i) {
      const mf::BlockDesign d = design(i);
      tracer.set_op(i);
      const Clock::time_point t0 = Clock::now();
      {
        Scope op(&tracer, "op");
        replayed.push_back(replay_flow(&tracer, counters, d, options(i)));
      }
      traced_s += seconds_since(t0);
    }

    Digest digest;
    long mismatches = 0;
    std::vector<double> unplaced;
    std::vector<double> cost;
    double moves = 0.0;
    double illegal = 0.0;
    double accepted = 0.0;
    double converge = 0.0;
    double tool_runs = 0.0;
    for (int i = 0; i < kTraceFlows; ++i) {
      const mf::RwFlowResult& ref = reference[static_cast<std::size_t>(i)];
      const Replayed& rep = replayed[static_cast<std::size_t>(i)];
      digest_flow(digest, ref);
      std::string why = check_stitch(device_, ref.problem, ref.stitch);
      if (why.empty()) {
        why = compare(ref, rep);
        if (!why.empty()) ++mismatches;
      }
      report.op(why);
      unplaced.push_back(ref.stitch.unplaced);
      cost.push_back(ref.stitch.cost);
      tool_runs += ref.total_tool_runs;
      moves += static_cast<double>(rep.stitch.total_moves);
      illegal += static_cast<double>(rep.stitch.illegal);
      accepted += static_cast<double>(rep.stitch.accepted);
      converge += static_cast<double>(rep.stitch.converge_move);
    }
    report.digest = digest.value();

    const std::map<std::string, SpanTotals> totals = span_totals({&tracer});
    const double op_wall = dump_spans({&tracer}, cfg.work_dir + "/spans.tsv");
    add_span_shares(report, totals, op_wall);
    counters.add_metrics(report);
    const auto calls = [&](const char* span) {
      const auto it = totals.find(span);
      return it == totals.end() ? 0.0 : static_cast<double>(it->second.calls);
    };
    const double flows = kTraceFlows;
    report.add("trace.ops", flows, "count");
    report.add("trace.overhead_share", traced_s / untraced_s - 1.0, "share");
    report.add("trace.replay_mismatches", static_cast<double>(mismatches),
               "count");
    report.add("quality.tool_runs", tool_runs / flows, "count");
    report.add("quality.unplaced_blocks", median(unplaced), "count");
    report.add("quality.stitch_cost", median(cost), "cost");
    report.add("synth.calls", calls("synth.optimize"), "count");
    report.add("core.estimate_calls", calls("core.estimate"), "count");
    report.add("timing.calls", calls("timing.sta"), "count");
    report.add("stitch.moves", moves / flows, "count");
    const auto stitch_span = totals.find("stitch");
    report.add("stitch.moves_per_s",
               stitch_span == totals.end() ? 0.0
                                           : moves / stitch_span->second.self_s,
               "1/s");
    report.add("stitch.illegal_share", moves > 0 ? illegal / moves : 0.0,
               "share");
    report.add("stitch.accept_share", moves > 0 ? accepted / moves : 0.0,
               "share");
    report.add("stitch.converge_move", converge / flows, "count");
  }

 private:
  /// What the traced replay of one flow produced.
  struct Replayed {
    std::vector<std::optional<mf::Macro>> macros;  ///< per unique block
    mf::StitchProblem problem;
    mf::StitchResult stitch;
  };

  mf::BlockDesign design(int op) const {
    return mf::build_cnv_w1a1(
        mf::task_seed(seed_, "design:" + std::to_string(op)));
  }

  mf::RwFlowOptions options(int op) const {
    mf::RwFlowOptions opts;
    opts.jobs = 1;
    opts.compute_timing = true;
    opts.stitch.seed = mf::task_seed(seed_, "stitch:" + std::to_string(op));
    opts.stitch.jobs = 1;
    return opts;
  }

  /// One flow rebuilt from public calls: per block synthesis, quick place,
  /// (estimate,) the CF search, STA; then the stitch problem and stitch().
  Replayed replay_flow(Tracer* tracer, OracleCounters& counters,
                       const mf::BlockDesign& d,
                       const mf::RwFlowOptions& opts) const {
    Replayed out;
    for (const mf::Module& module : d.unique_modules) {
      // The Estimator policy synthesizes once for the features, then
      // implement_block synthesizes again.
      double seed_cf = 0.0;
      {
        mf::Module synth = module;
        mf::ResourceReport report;
        mf::ShapeReport shape;
        synthesize(tracer, synth, report, shape);
        Scope span(tracer, "core.estimate");
        seed_cf = policy_.estimator->estimate(report, shape);
      }
      mf::Module synth = module;
      mf::ResourceReport report;
      mf::ShapeReport shape;
      synthesize(tracer, synth, report, shape);
      const SearchOutcome found =
          replay_seeded(tracer, counters, synth, report, shape, device_,
                        seed_cf, opts.search);
      if (!found.found) {
        out.macros.emplace_back();
        continue;
      }
      mf::Macro macro;
      macro.name = module.name;
      macro.pblock = found.pblock;
      macro.footprint =
          mf::footprint_of(device_, found.pblock, report.uses_bram_or_dsp());
      macro.used_slices = found.place.used_slices;
      macro.est_slices = report.est_slices;
      macro.cf = found.cf;
      macro.fill_ratio = found.place.fill_ratio;
      macro.tool_runs = found.tool_runs;
      {
        Scope span(tracer, "timing.sta");
        macro.longest_path_ns =
            mf::analyze_timing(synth.netlist, found.place.placement,
                               found.place.route,
                               opts.search.place.route.cell_capacity)
                .longest_path_ns;
      }
      out.macros.push_back(std::move(macro));
    }

    // The stitch problem over the implemented blocks, as the flow builds it.
    std::vector<int> macro_index(out.macros.size(), -1);
    for (std::size_t i = 0; i < out.macros.size(); ++i) {
      if (!out.macros[i]) continue;
      macro_index[i] = static_cast<int>(out.problem.macros.size());
      out.problem.macros.push_back(*out.macros[i]);
    }
    std::vector<int> inst_map(d.instances.size(), -1);
    for (std::size_t i = 0; i < d.instances.size(); ++i) {
      const int m = macro_index[static_cast<std::size_t>(d.instances[i].macro)];
      if (m < 0) continue;
      inst_map[i] = static_cast<int>(out.problem.instances.size());
      out.problem.instances.push_back({d.instances[i].name, m});
    }
    for (const mf::BlockNet& net : d.nets) {
      mf::BlockNet mapped;
      mapped.weight = net.weight;
      for (int inst : net.instances) {
        const int m = inst_map[static_cast<std::size_t>(inst)];
        if (m >= 0) mapped.instances.push_back(m);
      }
      if (mapped.instances.size() >= 2) {
        out.problem.nets.push_back(std::move(mapped));
      }
    }
    Scope span(tracer, "stitch");
    out.stitch = mf::stitch(device_, out.problem, opts.stitch);
    return out;
  }

  static void synthesize(Tracer* tracer, mf::Module& synth,
                         mf::ResourceReport& report, mf::ShapeReport& shape) {
    {
      Scope span(tracer, "synth.optimize");
      mf::optimize(synth.netlist);
      report = mf::make_report(synth.netlist);
    }
    Scope span(tracer, "place.quick");
    shape = mf::quick_place(report);
  }

  /// The replay must reproduce the flow: per-block CF, tool runs, PBlock and
  /// critical path, and the stitch positions and cost.
  static std::string compare(const mf::RwFlowResult& ref,
                             const Replayed& rep) {
    if (ref.blocks.size() != rep.macros.size()) return "block count differs";
    for (std::size_t i = 0; i < ref.blocks.size(); ++i) {
      const mf::ImplementedBlock& block = ref.blocks[i];
      const std::optional<mf::Macro>& macro = rep.macros[i];
      if (block.ok() != macro.has_value()) {
        return block.name + ": replay status differs";
      }
      if (!macro) continue;
      if (!same_bits(block.macro.cf, macro->cf) ||
          block.macro.tool_runs != macro->tool_runs ||
          !(block.macro.pblock == macro->pblock) ||
          !same_bits(block.macro.longest_path_ns, macro->longest_path_ns)) {
        return block.name + ": replayed implementation differs";
      }
    }
    if (ref.problem.instances.size() != rep.problem.instances.size() ||
        ref.problem.nets.size() != rep.problem.nets.size()) {
      return "replayed stitch problem differs";
    }
    if (!same_bits(ref.stitch.cost, rep.stitch.cost) ||
        ref.stitch.unplaced != rep.stitch.unplaced ||
        ref.stitch.total_moves != rep.stitch.total_moves) {
      return "replayed stitch differs";
    }
    for (std::size_t i = 0; i < ref.stitch.positions.size(); ++i) {
      if (ref.stitch.positions[i].col != rep.stitch.positions[i].col ||
          ref.stitch.positions[i].row != rep.stitch.positions[i].row) {
        return "replayed stitch positions differ";
      }
    }
    return "";
  }

  mf::Device device_;
  std::uint64_t seed_;
  TrainedEstimator trained_;
  mf::CfPolicy policy_;
};

}  // namespace

std::unique_ptr<Workload> make_cnv_flow(const Config& cfg) {
  return std::make_unique<CnvFlow>(cfg);
}

}  // namespace bench
