// Golden pin of the minimal-CF feasibility oracle.
//
// tests/data/golden_oracle_v1.txt was captured before the oracle's fast
// path (dense slice index, one-pitch anchor scan, clamp-free smear) and pins
// its outputs bit for bit:
//   * for 40 modules spread over the dataset sweep: find_min_cf's CF, tool
//     runs and PBlock, plus the winning placement's used slices, used
//     bounding box, fill ratio, congestion peak/mean (as hex floats) and FNV
//     digests of the per-cell placement and of the whole demand grid;
//   * for 3 modules: every distinct PBlock the CF sweep 0.9 .. 2.0 visits,
//     with its verdict and fail reason.
// On a mismatch the test writes what it computed to
// golden_oracle_v1.actual.txt in the working directory, for diffing.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/cf_search.hpp"
#include "fabric/catalog.hpp"
#include "rtlgen/sweep.hpp"
#include "synth/optimize.hpp"

namespace mf {
namespace {

/// Modules pinned per generator family (40 in all), spread evenly over
/// each family's run of the sweep so every family and size range is hit.
struct FamilyPicks {
  GenKind kind;
  int count;
};
constexpr FamilyPicks kPicks[] = {
    {GenKind::ShiftReg, 5}, {GenKind::LutRam, 3}, {GenKind::Carry, 3},
    {GenKind::Lfsr, 5},     {GenKind::Fir, 4},    {GenKind::Fsm, 3},
    {GenKind::Mixed, 17},
};

struct Prepared {
  Module module;
  ResourceReport report;
  ShapeReport shape;
};

Prepared prepare(const GenSpec& spec) {
  Prepared p{realize(spec), {}, {}};
  optimize(p.module.netlist);
  p.report = make_report(p.module.netlist);
  p.shape = quick_place(p.report);
  return p;
}

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::string pblock_text(const PBlock& pb) {
  std::ostringstream out;
  out << pb.col_lo << ',' << pb.col_hi << ',' << pb.row_lo << ',' << pb.row_hi;
  return out.str();
}

std::uint64_t placement_digest(const Placement& placement) {
  std::string bytes;
  bytes.reserve(placement.size() * 4);
  for (const CellPlacement& p : placement) {
    char buf[2 * sizeof(std::int16_t)];
    std::memcpy(buf, &p.col, sizeof p.col);
    std::memcpy(buf + sizeof p.col, &p.row, sizeof p.row);
    bytes.append(buf, sizeof buf);
  }
  return fnv1a64(bytes);
}

std::uint64_t demand_digest(const std::vector<double>& demand) {
  std::string bytes(demand.size() * sizeof(double), '\0');
  if (!demand.empty()) std::memcpy(bytes.data(), demand.data(), bytes.size());
  return fnv1a64(bytes);
}

std::string oracle_text() {
  const Device dev = xc7z020_model();
  const std::vector<GenSpec> specs = dataset_sweep({2000, 42});
  std::ostringstream out;

  out << "# min_cf per module: name found min_cf tool_runs pblock "
         "used_slices used_bbox fill_ratio peak mean placement_fnv "
         "demand_fnv\n";
  std::vector<std::size_t> picks;
  for (const FamilyPicks& family : kPicks) {
    std::vector<std::size_t> members;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (specs[i].kind == family.kind) members.push_back(i);
    }
    for (int j = 0; j < family.count && !members.empty(); ++j) {
      picks.push_back(members[static_cast<std::size_t>(j) *
                              (members.size() - 1) /
                              static_cast<std::size_t>(family.count - 1)]);
    }
  }
  for (const std::size_t pick : picks) {
    const Prepared p = prepare(specs[pick]);
    const CfSearchResult r = find_min_cf(p.module, p.report, p.shape, dev);
    const PlaceResult& place = r.place;
    out << p.module.name << ' ' << r.found << ' ' << hex(r.min_cf) << ' '
        << r.tool_runs << ' ' << pblock_text(r.pblock) << ' '
        << place.used_slices << ' ' << pblock_text(place.used_bbox) << ' '
        << hex(place.fill_ratio) << ' ' << hex(place.route.peak) << ' '
        << hex(place.route.mean) << ' ' << std::hex
        << placement_digest(place.placement) << ' '
        << demand_digest(place.route.demand) << std::dec << '\n';
  }

  // Per-step verdicts for three modules whose sweeps between them visit
  // every placement fail reason the sweep produces (carry, M-slice, LUT,
  // FF, congestion) before turning feasible.
  out << "# per-step verdicts: name cf pblock feasible fail_reason\n";
  for (const char* name : {"lfsr_575", "lfsr_483", "mixed_1610"}) {
    const GenSpec* spec = nullptr;
    for (const GenSpec& s : specs) {
      if (s.name == name) spec = &s;
    }
    if (spec == nullptr) {
      out << name << " missing\n";
      continue;
    }
    const Prepared p = prepare(*spec);
    PBlock last;
    for (int step = 0; step <= 55; ++step) {
      const double cf = 0.9 + 0.02 * step;
      const std::optional<PBlock> pb =
          generate_pblock(dev, p.report, p.shape, cf);
      if (!pb) {
        out << name << ' ' << hex(cf) << " none\n";
        continue;
      }
      if (*pb == last) continue;
      last = *pb;
      const PlaceResult place = place_in_pblock(p.module, p.report, dev, *pb);
      out << name << ' ' << hex(cf) << ' ' << pblock_text(*pb) << ' '
          << place.feasible << ' '
          << (place.fail_reason.empty() ? "-" : place.fail_reason) << '\n';
    }
  }
  return out.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(GoldenOracle, MatchesPreFastPathCapture) {
  const std::string actual = oracle_text();
  const std::string golden = read_file(std::string(MF_TEST_DATA_DIR) +
                                       "/golden_oracle_v1.txt");
  if (actual == golden) return;
  std::ofstream("golden_oracle_v1.actual.txt", std::ios::binary) << actual;
  std::istringstream a(actual);
  std::istringstream g(golden);
  std::string al;
  std::string gl;
  int line = 0;
  while (true) {
    ++line;
    const bool more_a = static_cast<bool>(std::getline(a, al));
    const bool more_g = static_cast<bool>(std::getline(g, gl));
    if (!more_a && !more_g) break;
    if (!more_a || !more_g || al != gl) {
      FAIL() << "golden_oracle_v1.txt differs at line " << line
             << "\n  golden: " << (more_g ? gl : "<end>")
             << "\n  actual: " << (more_a ? al : "<end>")
             << "\n(full output written to golden_oracle_v1.actual.txt)";
    }
  }
  FAIL() << "golden_oracle_v1.txt differs (line endings?)";
}

}  // namespace
}  // namespace mf
