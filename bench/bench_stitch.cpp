// Stitcher engine bench: incremental-vs-reference A/B, multi-start
// scaling, and evo against SA, on the fig5-scale cnvW1A1 stitch problem
// (constant CF 1.5) plus a device-filling synthetic.
//
// Three claims are measured and *checked*, not just timed:
//   1. the incremental cost engine (cached net boxes, bitset occupancy,
//      memoized anchor scans) returns bit-identical placements to the
//      pre-change reference engine while moving >= 3x faster;
//   2. multi-start annealing (restarts > 1) returns bit-identical results
//      at every `jobs` value;
//   3. the evolutionary engine earns its place on both problems: its
//      min-of-3 wall clock is at most SA's min-of-3 / 1.5, at a final cost
//      no worse than SA's (each engine bit-identical across the repeats).
// A violated invariant aborts the bench via MF_CHECK -- the ctest entry
// (`--quick`, run serially because claim 3 is a wall-clock gate) relies on
// that to turn this into a correctness gate.
//
// Results land in BENCH_STITCH.json (machine-readable: moves/sec, final
// cost, wall ms per configuration) next to a human-readable table on
// stdout. Plain main, not google-benchmark: the A/B structure (interleaved
// best-of-N with cross-run equality asserts) does not fit the BM_ harness.

#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/timer.hpp"
#include "fabric/catalog.hpp"
#include "flow/rw_flow.hpp"
#include "nn/cnv_w1a1.hpp"
#include "stitch/engine.hpp"

#include "bench_common.hpp"

namespace {

using namespace mf;

struct Sample {
  std::string name;
  long moves = 0;
  double seconds = 0.0;
  double cost = 0.0;
  int unplaced = 0;
  [[nodiscard]] double moves_per_sec() const {
    return seconds > 0.0 ? moves / seconds : 0.0;
  }
};

/// Same positions, cost, and counters -- the bit-identity contract.
void check_identical(const StitchResult& a, const StitchResult& b) {
  MF_CHECK(a.cost == b.cost);
  MF_CHECK(a.wirelength == b.wirelength);
  MF_CHECK(a.unplaced == b.unplaced);
  MF_CHECK(a.total_moves == b.total_moves);
  MF_CHECK(a.positions.size() == b.positions.size());
  for (std::size_t i = 0; i < a.positions.size(); ++i) {
    MF_CHECK(a.positions[i].col == b.positions[i].col);
    MF_CHECK(a.positions[i].row == b.positions[i].row);
  }
}

/// Move-for-move identity: counters and trace samples (wall seconds
/// excluded -- everything else must match).
void check_move_for_move(const StitchResult& a, const StitchResult& b) {
  check_identical(a, b);
  MF_CHECK(a.accepted == b.accepted);
  MF_CHECK(a.rejected == b.rejected);
  MF_CHECK(a.illegal == b.illegal);
  MF_CHECK(a.engine == b.engine);
  MF_CHECK(a.restart_index == b.restart_index);
  MF_CHECK(a.cost_trace.size() == b.cost_trace.size());
  for (std::size_t i = 0; i < a.cost_trace.size(); ++i) {
    MF_CHECK(a.cost_trace[i].first == b.cost_trace[i].first);
    MF_CHECK(a.cost_trace[i].second == b.cost_trace[i].second);
  }
}

/// Device-filling synthetic: two mid-size macro shapes chained with star
/// nets, enough copies to oversubscribe the xc7z020 fabric. This is the
/// regime where lone SA spends most of its budget shuffling parked blocks.
StitchProblem filling_problem(const Device& dev) {
  StitchProblem problem;
  auto add_macro = [&](const char* name, int col0, int w, int h) {
    Macro m;
    m.name = name;
    m.pblock = PBlock{col0, col0 + w - 1, 0, h - 1};
    m.footprint = footprint_of(dev, m.pblock, false);
    m.used_slices = w * h;
    problem.macros.push_back(std::move(m));
  };
  add_macro("mid", 0, 5, 20);
  add_macro("tall", 6, 4, 34);
  int next = 0;
  auto instances = [&](int macro, int count) {
    for (int i = 0; i < count; ++i) {
      problem.instances.push_back(
          BlockInstance{"f" + std::to_string(next++), macro});
    }
  };
  instances(0, 90);
  instances(1, 60);
  for (int i = 0; i + 1 < next; ++i) {
    problem.nets.push_back(BlockNet{{i, i + 1}, 1.0});
  }
  for (int i = 0; i + 8 < next; i += 8) {
    problem.nets.push_back(BlockNet{{i, i + 4, i + 8}, 0.5});
  }
  return problem;
}

Sample run_once(const char* name, const Device& dev,
                const StitchProblem& problem, const StitchOptions& opts,
                StitchResult* out = nullptr) {
  Timer t;
  StitchResult r = stitch(dev, problem, opts);
  Sample s;
  s.name = name;
  s.moves = r.restart_moves;
  s.seconds = t.seconds();
  s.cost = r.cost;
  s.unplaced = r.unplaced;
  if (out != nullptr) *out = std::move(r);
  return s;
}

/// The evo-vs-SA gate on one problem: interleaved min-of-3 wall clock of
/// the default SA run and the evo run, each checked move-for-move identical
/// across the repeats. Requires SA min / evo min >= 1.5 and evo cost <= SA
/// cost. Returns {wall ratio, evo cost - SA cost}.
std::pair<double, double> evo_gate(const char* tag, const Device& dev,
                                   const StitchProblem& problem,
                                   std::vector<Sample>& samples) {
  const std::string suffix = std::string("_") + tag;
  StitchOptions sa_opts;
  StitchOptions evo_opts;
  evo_opts.engine = StitchEngine::Evo;
  Sample sa, evo;
  StitchResult sa_first, evo_first;
  for (int rep = 0; rep < 3; ++rep) {
    StitchResult sa_run, evo_run;
    const Sample a =
        run_once(("sa" + suffix).c_str(), dev, problem, sa_opts, &sa_run);
    const Sample b =
        run_once(("evo" + suffix).c_str(), dev, problem, evo_opts, &evo_run);
    if (rep == 0) {
      sa_first = std::move(sa_run);
      evo_first = std::move(evo_run);
    } else {
      check_move_for_move(sa_first, sa_run);
      check_move_for_move(evo_first, evo_run);
    }
    if (rep == 0 || a.seconds < sa.seconds) sa = a;
    if (rep == 0 || b.seconds < evo.seconds) evo = b;
  }
  const double ratio = sa.seconds / evo.seconds;
  const double delta = evo.cost - sa.cost;
  std::printf(
      "evo vs sa [%s]: min-of-3 wall %.1f ms vs %.1f ms (%.2fx, gate >= "
      "1.5x), cost %.1f vs %.1f (%+.1f, gate <= 0), unplaced %d vs %d\n",
      tag, evo.seconds * 1e3, sa.seconds * 1e3, ratio, evo.cost, sa.cost,
      delta, evo.unplaced, sa.unplaced);
  MF_CHECK_MSG(ratio >= 1.5 && delta <= 0.0,
               "evo gate failed: need evo min-of-3 wall <= SA min-of-3 / "
               "1.5 at no worse cost");
  samples.push_back(sa);
  samples.push_back(evo);
  return {ratio, delta};
}

void append_json(std::string& json, const Sample& s, bool first) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%s\n  {\"name\": \"%s\", \"moves\": %ld, \"wall_ms\": %.3f, "
                "\"moves_per_sec\": %.0f, \"cost\": %.6f, \"unplaced\": %d}",
                first ? "" : ",", s.name.c_str(), s.moves, s.seconds * 1e3,
                s.moves_per_sec(), s.cost, s.unplaced);
  json += buf;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  // Fig5-scale stitch problem: every cnvW1A1 block implemented at the
  // paper's constant CF 1.5, stitch deferred to the measured runs below.
  const Device dev = xc7z020_model();
  const CnvDesign design = build_cnv_w1a1();
  RwFlowOptions fopts;
  fopts.compute_timing = false;
  fopts.run_stitch = false;
  fopts.jobs = 0;
  CfPolicy policy;
  policy.constant_cf = 1.5;
  const RwFlowResult flow = run_rw_flow(design, dev, policy, fopts);
  const StitchProblem& problem = flow.problem;
  std::printf("stitch problem: %zu instances, %zu nets, %zu macros\n",
              problem.instances.size(), problem.nets.size(),
              problem.macros.size());

  std::vector<Sample> samples;
  std::string json;

  // -- A/B: reference vs incremental engine, interleaved best-of-N --------
  StitchOptions ref_opts;
  ref_opts.reference_engine = true;
  StitchOptions inc_opts;
  const int reps = quick ? 1 : 3;
  Sample ref, inc;
  StitchResult ref_result, inc_result;
  for (int rep = 0; rep < reps; ++rep) {
    const Sample a = run_once("reference", dev, problem, ref_opts, &ref_result);
    const Sample b = run_once("incremental", dev, problem, inc_opts,
                              &inc_result);
    check_identical(ref_result, inc_result);
    if (rep == 0 || a.seconds < ref.seconds) ref = a;
    if (rep == 0 || b.seconds < inc.seconds) inc = b;
  }
  samples.push_back(ref);
  samples.push_back(inc);
  const double speedup = inc.moves_per_sec() / ref.moves_per_sec();
  std::printf("\n%-16s %10s %10s %12s %12s %9s\n", "engine", "moves",
              "wall ms", "moves/sec", "cost", "unplaced");
  for (const Sample& s : {ref, inc}) {
    std::printf("%-16s %10ld %10.1f %12.0f %12.1f %9d\n", s.name.c_str(),
                s.moves, s.seconds * 1e3, s.moves_per_sec(), s.cost,
                s.unplaced);
  }
  std::printf("incremental speedup: %.2fx (acceptance target >= 3x)\n",
              speedup);

  // -- multi-start scaling: restarts fixed, jobs swept --------------------
  const int restarts = quick ? 4 : 8;
  const std::vector<int> jobs_sweep = quick ? std::vector<int>{1, 4}
                                            : std::vector<int>{1, 2, 4, 8};
  std::printf("\n%-16s %10s %10s %12s %12s %9s\n", "restarts x jobs", "moves",
              "wall ms", "moves/sec", "cost", "unplaced");
  StitchResult jobs1_result;
  for (std::size_t i = 0; i < jobs_sweep.size(); ++i) {
    StitchOptions opts;
    opts.restarts = restarts;
    opts.jobs = jobs_sweep[i];
    const std::string name = std::to_string(restarts) + "x" +
                             std::to_string(jobs_sweep[i]);
    StitchResult result;
    Sample s = run_once(("multistart_" + name).c_str(), dev, problem, opts,
                        &result);
    if (i == 0) {
      jobs1_result = std::move(result);
    } else {
      // Determinism across the fan-out width: bit-identical winner.
      check_identical(jobs1_result, result);
      MF_CHECK(jobs1_result.restart_index == result.restart_index);
    }
    std::printf("%-16s %10ld %10.1f %12.0f %12.1f %9d\n", name.c_str(),
                s.moves, s.seconds * 1e3, s.moves_per_sec(), s.cost,
                s.unplaced);
    samples.push_back(std::move(s));
  }
  std::printf("multi-start winner: restart %d of %d (cost %.1f)\n",
              jobs1_result.restart_index, restarts, jobs1_result.cost);

  // -- evo vs SA on the fig5 and device-filling problems -------------------
  std::printf("\n");
  const auto [fig5_ratio, fig5_delta] = evo_gate("fig5", dev, problem, samples);
  const auto [fill_ratio, fill_delta] =
      evo_gate("filling", dev, filling_problem(dev), samples);

  json += " \"problem\": {\"instances\": " +
          std::to_string(problem.instances.size()) +
          ", \"nets\": " + std::to_string(problem.nets.size()) +
          ", \"macros\": " + std::to_string(problem.macros.size()) + "},\n";
  char head[320];
  std::snprintf(head, sizeof head,
                " \"incremental_speedup\": %.3f,\n"
                " \"evo_gate\": {"
                "\"fig5_wall_ratio\": %.3f, \"fig5_cost_delta\": %.6f, "
                "\"filling_wall_ratio\": %.3f, "
                "\"filling_cost_delta\": %.6f},\n"
                " \"runs\": [",
                speedup, fig5_ratio, fig5_delta, fill_ratio, fill_delta);
  json += head;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    append_json(json, samples[i], i == 0);
  }
  json += "\n ]\n";
  std::printf("\n");
  if (!bench::write_bench_json("BENCH_STITCH.json", json)) return 1;
  return 0;
}
