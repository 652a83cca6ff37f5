// The stitcher engine contract, pinned three ways:
//
//   1. history: the restarts = 1 SA cost trace serialises to the exact
//      bytes of tests/data/golden_sa_trace.txt, and the evolutionary
//      engine reproduces pinned pre-change results (cost bits, positions,
//      moves, trace) at restarts = 1 and restarts = 4 -- the latter at
//      MF_TEST_JOBS workers, which ctest raises to 8 in the
//      `stitch_portfolio_jobs` re-run;
//   2. legality: the evolutionary engine returns footprint-legal,
//      overlap-free, correctly costed placements on every catalog device;
//   3. validation: malformed StitchOptions fail fast with CheckError, and
//      engine names other than "sa" / "evo" do not parse.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "fabric/catalog.hpp"
#include "stitch/engine.hpp"
#include "stitch/sa_stitcher.hpp"

namespace mf {
namespace {

/// Same mixed problem as test_stitch_incremental: three macro shapes, one
/// BRAM-bound, 36 instances in a chain. The golden fixtures are tied to
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

void expect_identical(const StitchResult& a, const StitchResult& b) {
  EXPECT_EQ(a.total_moves, b.total_moves);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.illegal, b.illegal);
  EXPECT_EQ(a.unplaced, b.unplaced);
  EXPECT_EQ(a.converge_move, b.converge_move);
  EXPECT_EQ(a.engine, b.engine);
  EXPECT_EQ(a.restart_index, b.restart_index);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.wirelength),
            std::bit_cast<std::uint64_t>(b.wirelength));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.cost),
            std::bit_cast<std::uint64_t>(b.cost));
  EXPECT_EQ(positions_hash(a), positions_hash(b));
  EXPECT_EQ(trace_hash(a), trace_hash(b));
}

/// Every placed instance sits on a legal anchor, no two footprints share a
/// cell, and cost == wirelength + penalty * unplaced.
void expect_legal(const Device& dev, const StitchProblem& problem,
                  const StitchResult& r) {
  ASSERT_EQ(r.positions.size(), problem.instances.size());
  std::vector<int> grid(static_cast<std::size_t>(dev.num_columns()) *
                            static_cast<std::size_t>(dev.rows()),
                        -1);
  int placed = 0;
  for (std::size_t i = 0; i < r.positions.size(); ++i) {
    const BlockPlacement& p = r.positions[i];
    if (!p.placed()) continue;
    ++placed;
    const Macro& macro =
        problem.macros[static_cast<std::size_t>(problem.instances[i].macro)];
    ASSERT_TRUE(footprint_fits(dev, macro.footprint, p.col, p.row,
                               macro.pblock.row_lo))
        << "illegal anchor for " << problem.instances[i].name;
    for (int c = p.col; c < p.col + macro.footprint.width(); ++c) {
      for (int row = p.row; row < p.row + macro.footprint.height; ++row) {
        auto& cell = grid[static_cast<std::size_t>(c) *
                              static_cast<std::size_t>(dev.rows()) +
                          static_cast<std::size_t>(row)];
        ASSERT_EQ(cell, -1) << "overlap at " << c << "," << row;
        cell = static_cast<int>(i);
      }
    }
  }
  EXPECT_EQ(placed + r.unplaced, static_cast<int>(problem.instances.size()));
  const double penalty = 4.0 * (dev.num_columns() + dev.rows());
  EXPECT_NEAR(r.cost, r.wirelength + penalty * r.unplaced, 1e-6);
  EXPECT_GE(r.wirelength, 0.0);
}

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << "missing fixture " << path;
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

// -- 1. history --------------------------------------------------------------

TEST(StitchEngines, SaTraceMatchesGoldenFixtureByteForByte) {
  const Device dev = xc7z020_model();
  const StitchResult r = stitch(dev, mixed_problem(dev), golden_opts(1));
  EXPECT_EQ(r.engine, "sa");
  const std::string golden =
      read_file(std::string(MF_TEST_DATA_DIR) + "/golden_sa_trace.txt");
  EXPECT_EQ(trace_to_text(r), golden);
}

/// One pinned evolutionary run on (mixed_problem, golden_opts(seed)) with
/// engine = evo, captured from the engine before the stitcher lost its
/// portfolio, analytic pre-placer and warm-start paths.
struct EvoGoldenRow {
  std::uint64_t seed;
  int restarts;
  long total_moves;
  int restart_index;
  long restart_moves;
  std::uint64_t cost_bits, positions_hash, trace_hash;
};

constexpr EvoGoldenRow kEvoGolden[] = {
    {1ull, 1, 2628, 0, 2628, 0x4083e00000000000ull, 0xf924c0bb22f09f36ull,
     0xc0ba93167cbeecbeull},
    {1ull, 4, 2118, 2, 8421, 0x4082e00000000000ull, 0xcb5e1d05524caed7ull,
     0xc72e531afd3e1759ull},
    {2ull, 1, 1626, 0, 1626, 0x4086b00000000000ull, 0x707b0daa64b9ecabull,
     0xc1a8b6e68e097f4cull},
    {2ull, 4, 2727, 3, 11067, 0x4082400000000000ull, 0x4a77f55c800b3535ull,
     0x056e8480c1401a0aull},
    {3ull, 1, 3015, 0, 3015, 0x4081f00000000000ull, 0x9dbac1c84b5e7e1full,
     0x5b2d6ab5922199d2ull},
    {3ull, 4, 2283, 1, 8667, 0x4084000000000000ull, 0x98e1e524e6143db0ull,
     0xde0d5b7e97d51496ull},
};

TEST(StitchEngines, EvoMatchesPreChangeGoldenRuns) {
  const Device dev = xc7z020_model();
  const StitchProblem problem = mixed_problem(dev);
  for (const EvoGoldenRow& g : kEvoGolden) {
    StitchOptions opts = golden_opts(g.seed);
    opts.engine = StitchEngine::Evo;
    opts.restarts = g.restarts;
    opts.jobs = g.restarts == 1 ? 1 : env_jobs();
    const StitchResult r = stitch(dev, problem, opts);
    const std::string at =
        "seed " + std::to_string(g.seed) + " restarts " +
        std::to_string(g.restarts);
    EXPECT_EQ(r.engine, "evo") << at;
    EXPECT_EQ(r.total_moves, g.total_moves) << at;
    EXPECT_EQ(r.restart_index, g.restart_index) << at;
    EXPECT_EQ(r.restart_moves, g.restart_moves) << at;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.cost), g.cost_bits) << at;
    EXPECT_EQ(positions_hash(r), g.positions_hash) << at;
    EXPECT_EQ(trace_hash(r), g.trace_hash) << at;
  }
}

// -- 2. legality on every catalog device ------------------------------------

TEST(StitchEngines, EvoIsLegalOnEveryCatalogDevice) {
  for (const Device& dev : {xc7z020_model(), xc7z045_model()}) {
    const StitchProblem problem = mixed_problem(dev);
    StitchOptions opts = golden_opts(3);
    opts.engine = StitchEngine::Evo;
    const StitchResult r = stitch(dev, problem, opts);
    EXPECT_EQ(r.engine, "evo");
    expect_legal(dev, problem, r);
    // Reproducible per seed.
    expect_identical(r, stitch(dev, problem, opts));
  }
}

// -- 3. fail-fast validation -------------------------------------------------

TEST(StitchEngines, MalformedOptionsThrowInsteadOfFallingBackToSa) {
  const Device dev = xc7z020_model();
  const StitchProblem problem = mixed_problem(dev);
  auto with = [&](auto tweak) {
    StitchOptions opts = golden_opts(1);
    tweak(opts);
    return opts;
  };
  EXPECT_THROW(
      stitch(dev, problem, with([](StitchOptions& o) { o.restarts = 0; })),
      CheckError);
  EXPECT_THROW(
      stitch(dev, problem, with([](StitchOptions& o) { o.jobs = -1; })),
      CheckError);
  EXPECT_THROW(stitch(dev, problem,
                      with([](StitchOptions& o) { o.evo_population = 1; })),
               CheckError);
  // Only the two engines parse; unknown names never reach the library.
  EXPECT_EQ(stitch_engine_from_string("sa"), StitchEngine::Sa);
  EXPECT_EQ(stitch_engine_from_string("evo"), StitchEngine::Evo);
  EXPECT_EQ(stitch_engine_from_string("analytic"), std::nullopt);
  EXPECT_EQ(stitch_engine_from_string("portfolio"), std::nullopt);
  EXPECT_EQ(stitch_engine_from_string("sa,evo"), std::nullopt);
  EXPECT_EQ(stitch_engine_from_string("frobnicate"), std::nullopt);
  EXPECT_EQ(stitch_engine_from_string(""), std::nullopt);
}

}  // namespace
}  // namespace mf
