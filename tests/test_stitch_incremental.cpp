// The incremental stitcher engine's exactness contract, pinned three ways:
//
//   1. golden traces: the default engine at restarts = 1 must reproduce the
//      PRE-incremental stitcher's results bit for bit (counters, bit_cast'd
//      final doubles, position and cost-trace hashes captured from the old
//      code before the rewrite);
//   2. differential: the shipped reference engine (reference_engine = true,
//      the old naive code kept alive) and the incremental engine must agree
//      bitwise on every seed;
//   3. properties: the IncrementalWirelength cache never drifts from a
//      from-scratch recompute under 10k random place / move / unplace ops.
//
// Plus the multi-start determinism contract: restarts = K is bit-identical
// at any `jobs` value (MF_TEST_JOBS workers, default 8; ctest re-runs the
// multi-start tests with 8 in `stitch_portfolio_jobs`), the winner is the
// argmin over the per-restart task_seed runs (lowest index on ties), and
// restarts = 1 is the plain single anneal.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "common/rng.hpp"
#include "fabric/catalog.hpp"
#include "stitch/incremental_cost.hpp"
#include "stitch/sa_stitcher.hpp"

namespace mf {
namespace {

/// Same mixed problem as test_stitch_properties: three macro shapes, one
/// BRAM-bound, 36 instances in a chain. The golden rows below are tied to
/// this exact problem -- do not reshape it.
StitchProblem mixed_problem(const Device& dev) {
  StitchProblem problem;
  auto add_macro = [&](const char* name, int col0, int w, int h, bool hard) {
    Macro m;
    m.name = name;
    m.pblock = PBlock{col0, col0 + w - 1, 0, h - 1};
    m.footprint = footprint_of(dev, m.pblock, hard);
    m.used_slices = w * h;
    problem.macros.push_back(std::move(m));
  };
  add_macro("small", 0, 3, 8, false);
  add_macro("wide", 3, 9, 12, false);
  int bram_col = -1;
  for (int c = 0; c < dev.num_columns(); ++c) {
    if (dev.column(c) == ColumnKind::Bram) {
      bram_col = c;
      break;
    }
  }
  add_macro("brammy", bram_col - 1, 3, 10, true);

  int next = 0;
  auto instances = [&](int macro, int count) {
    for (int i = 0; i < count; ++i) {
      problem.instances.push_back(
          BlockInstance{"i" + std::to_string(next++), macro});
    }
  };
  instances(0, 20);
  instances(1, 10);
  instances(2, 6);
  for (int i = 0; i + 1 < next; ++i) {
    problem.nets.push_back(BlockNet{{i, i + 1}, 1.0});
  }
  return problem;
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  h *= 0x100000001b3ULL;
  return h;
}

std::uint64_t positions_hash(const StitchResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const BlockPlacement& p : r.positions) {
    h = mix(h, static_cast<std::uint64_t>(p.col));
    h = mix(h, static_cast<std::uint64_t>(p.row));
  }
  return h;
}

std::uint64_t trace_hash(const StitchResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& [move, cost] : r.cost_trace) {
    h = mix(h, static_cast<std::uint64_t>(move));
    h = mix(h, std::bit_cast<std::uint64_t>(cost));
  }
  return h;
}

StitchOptions golden_opts(std::uint64_t seed) {
  StitchOptions opts;
  opts.seed = seed;
  opts.moves_per_temp = 150;
  opts.cooling = 0.85;
  return opts;
}

int env_jobs() {
  if (const char* jobs = std::getenv("MF_TEST_JOBS")) {
    const int n = std::atoi(jobs);
    if (n > 0) return n;
  }
  return 8;
}

void expect_identical(const StitchResult& a, const StitchResult& b) {
  EXPECT_EQ(a.total_moves, b.total_moves);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.illegal, b.illegal);
  EXPECT_EQ(a.unplaced, b.unplaced);
  EXPECT_EQ(a.converge_move, b.converge_move);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.wirelength),
            std::bit_cast<std::uint64_t>(b.wirelength));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.cost),
            std::bit_cast<std::uint64_t>(b.cost));
  EXPECT_EQ(positions_hash(a), positions_hash(b));
  EXPECT_EQ(trace_hash(a), trace_hash(b));
}

/// One pinned pre-change run: every field the old engine produced for
/// (mixed_problem, golden_opts(seed)), captured before the rewrite.
struct GoldenRow {
  std::uint64_t seed;
  long total_moves, accepted, rejected, illegal;
  int unplaced;
  long converge_move;
  std::uint64_t wirelength_bits, cost_bits, positions_hash, trace_hash;
};

constexpr GoldenRow kGolden[] = {
    {1ull, 8550, 273, 4673, 3571, 0, 6900, 0x4084100000000000ull,
     0x4084100000000000ull, 0x951f887e78dcc37dull, 0xec6c069e6130f303ull},
    {2ull, 7500, 272, 3973, 3235, 0, 5250, 0x4083000000000000ull,
     0x4083000000000000ull, 0x782d59339c4f41b6ull, 0xfa0c9f5680e004b7ull},
    {3ull, 6150, 292, 3076, 2762, 0, 3750, 0x4083e00000000000ull,
     0x4083e00000000000ull, 0xcea142ba32a847dbull, 0xdc1cc13a53bc3fe3ull},
    {4ull, 2250, 229, 1067, 950, 0, 0, 0x4088300000000000ull,
     0x4088300000000000ull, 0x949cf05a4da2f262ull, 0x8e0f1a8d127b74c5ull},
};

TEST(StitchIncremental, GoldenTracesMatchPreChangeEngine) {
  const Device dev = xc7z020_model();
  const StitchProblem problem = mixed_problem(dev);
  for (const GoldenRow& g : kGolden) {
    const StitchResult r = stitch(dev, problem, golden_opts(g.seed));
    EXPECT_EQ(r.total_moves, g.total_moves) << "seed " << g.seed;
    EXPECT_EQ(r.accepted, g.accepted) << "seed " << g.seed;
    EXPECT_EQ(r.rejected, g.rejected) << "seed " << g.seed;
    EXPECT_EQ(r.illegal, g.illegal) << "seed " << g.seed;
    EXPECT_EQ(r.unplaced, g.unplaced) << "seed " << g.seed;
    EXPECT_EQ(r.converge_move, g.converge_move) << "seed " << g.seed;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.wirelength), g.wirelength_bits)
        << "seed " << g.seed;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.cost), g.cost_bits)
        << "seed " << g.seed;
    EXPECT_EQ(positions_hash(r), g.positions_hash) << "seed " << g.seed;
    EXPECT_EQ(trace_hash(r), g.trace_hash) << "seed " << g.seed;
  }
}

TEST(StitchIncremental, ReferenceEngineBitIdentical) {
  const Device dev = xc7z020_model();
  const StitchProblem problem = mixed_problem(dev);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    StitchOptions inc = golden_opts(seed);
    StitchOptions ref = golden_opts(seed);
    ref.reference_engine = true;
    const StitchResult a = stitch(dev, problem, inc);
    const StitchResult b = stitch(dev, problem, ref);
    expect_identical(a, b);
  }
}

TEST(StitchIncremental, WirelengthCacheNeverDrifts) {
  const Device dev = xc7z020_model();
  const StitchProblem problem = mixed_problem(dev);
  const int n = static_cast<int>(problem.instances.size());
  for (std::uint64_t seed : {7ull, 19ull, 101ull}) {
    IncrementalWirelength engine(problem);
    Rng rng(seed);
    for (int op = 0; op < 10000; ++op) {
      const int inst = static_cast<int>(rng.index(static_cast<std::size_t>(n)));
      // 1/4 unplace, 3/4 place-or-move at a random (legal or not -- the
      // engine's geometry never consults occupancy) anchor.
      if (rng.index(4) == 0) {
        engine.unplace(inst);
      } else {
        const int col = static_cast<int>(rng.index(100));
        const int row = static_cast<int>(rng.index(140));
        engine.place(inst, col, row);
      }
      if (op % 97 == 0 || op > 9900) {
        ASSERT_NEAR(engine.total(), engine.full_recompute(), 1e-9)
            << "seed " << seed << " op " << op;
      }
    }
    EXPECT_NEAR(engine.total(), engine.full_recompute(), 1e-9);
    EXPECT_GT(engine.rescans(), 0) << "property run never hit the rescan path";
  }
}

TEST(StitchIncremental, MultiStartIdenticalAtAnyJobs) {
  const Device dev = xc7z020_model();
  const StitchProblem problem = mixed_problem(dev);
  StitchOptions opts = golden_opts(5);
  opts.restarts = 8;
  opts.jobs = 1;
  const StitchResult sequential = stitch(dev, problem, opts);
  opts.jobs = env_jobs();
  const StitchResult parallel = stitch(dev, problem, opts);
  expect_identical(sequential, parallel);
  EXPECT_EQ(sequential.restart_index, parallel.restart_index);
  EXPECT_EQ(sequential.restart_moves, parallel.restart_moves);
}

TEST(StitchIncremental, MultiStartWinnerIsArgminOverTaskSeeds) {
  const Device dev = xc7z020_model();
  const StitchProblem problem = mixed_problem(dev);
  StitchOptions opts = golden_opts(5);
  opts.restarts = 8;
  const StitchResult multi = stitch(dev, problem, opts);

  int best = -1;
  double best_cost = 0.0;
  long all_moves = 0;
  for (int k = 0; k < 8; ++k) {
    StitchOptions one = golden_opts(5);
    one.seed = task_seed(opts.seed, "restart:" + std::to_string(k));
    const StitchResult r = stitch(dev, problem, one);
    all_moves += r.total_moves;
    if (best < 0 || r.cost < best_cost) {  // strict <: ties keep lowest k
      best = k;
      best_cost = r.cost;
    }
  }
  EXPECT_EQ(multi.restart_index, best);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(multi.cost),
            std::bit_cast<std::uint64_t>(best_cost));
  EXPECT_EQ(multi.restart_moves, all_moves);
}

TEST(StitchIncremental, SingleRestartIsThePlainAnneal) {
  const Device dev = xc7z020_model();
  const StitchProblem problem = mixed_problem(dev);
  StitchOptions multi = golden_opts(3);
  multi.restarts = 1;
  multi.jobs = env_jobs();  // must not matter at restarts = 1
  const StitchResult a = stitch(dev, problem, multi);
  const StitchResult b = stitch(dev, problem, golden_opts(3));
  expect_identical(a, b);
  EXPECT_EQ(a.restart_index, 0);
  EXPECT_EQ(a.restart_moves, a.total_moves);
}

TEST(StitchIncremental, CostTraceIsCapped) {
  const Device dev = xc7z020_model();
  const StitchProblem problem = mixed_problem(dev);
  StitchOptions opts = golden_opts(1);
  // Pathological schedule: ~9200 temperature steps of one move each, with
  // quiescence detection off so the walk really takes them all.
  opts.moves_per_temp = 1;
  opts.cooling = 0.999;
  opts.stagnation_temps = 0;
  const StitchResult r = stitch(dev, problem, opts);
  EXPECT_GT(r.total_moves, 4096);
  EXPECT_LE(r.cost_trace.size(), 4096u);
  EXPECT_GE(r.cost_trace.size(), 1024u);  // downsampled, not truncated
  for (std::size_t i = 1; i < r.cost_trace.size(); ++i) {
    EXPECT_LT(r.cost_trace[i - 1].first, r.cost_trace[i].first);
  }
}

}  // namespace
}  // namespace mf
