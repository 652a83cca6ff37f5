#include "replay.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "route/routability.hpp"

namespace bench {
namespace {

/// One feasibility check ("tool run"): the PBlock is already generated.
struct Check {
  bool feasible = false;
  mf::PlaceResult place;
};

Check check_pblock(Tracer* tracer, OracleCounters& counters,
                   const mf::Module& module, const mf::ResourceReport& report,
                   const mf::Device& device, const mf::PBlock& pblock,
                   const mf::CfSearchOptions& opts) {
  Check check;
  mf::DetailedPlaceOptions pack_opts = opts.place;
  pack_opts.check_routability = false;
  {
    Scope span(tracer, "place.pack");
    check.place = mf::place_in_pblock(module, report, device, pblock, pack_opts);
  }
  ++counters.pack_calls;
  if (!check.place.feasible) {
    const std::string& why = check.place.fail_reason;
    if (why == "carry chain does not fit") {
      ++counters.fail_carry;
    } else if (why == "lut capacity") {
      ++counters.fail_lut;
    } else if (why == "ff packing") {
      ++counters.fail_ff;
    } else if (why == "m-slice capacity") {
      ++counters.fail_mslice;
    } else if (why == "bram capacity" || why == "dsp capacity" ||
               why == "pblock out of bounds") {
      ++counters.fail_hard;
    } else {
      ++counters.fail_other;
    }
    return check;
  }
  {
    Scope span(tracer, "route.estimate");
    check.place.route = mf::estimate_routability(
        module.netlist, check.place.placement, pblock, opts.place.route);
  }
  ++counters.route_calls;
  if (!check.place.route.routable) {
    check.place.feasible = false;
    check.place.fail_reason = "congestion";
    ++counters.fail_congestion;
    return check;
  }
  check.feasible = true;
  return check;
}

/// generate_pblock with its span and the per-search distinct count.
class PBlockSource {
 public:
  PBlockSource(Tracer* tracer, OracleCounters& counters)
      : tracer_(tracer), counters_(counters) {}
  ~PBlockSource() {
    counters_.pblock_distinct += static_cast<long>(seen_.size());
  }
  PBlockSource(const PBlockSource&) = delete;
  PBlockSource& operator=(const PBlockSource&) = delete;

  std::optional<mf::PBlock> at(const mf::Device& device,
                               const mf::ResourceReport& report,
                               const mf::ShapeReport& shape, double cf,
                               const mf::CfSearchOptions& opts) {
    std::optional<mf::PBlock> pb;
    {
      Scope span(tracer_, "core.pblock");
      pb = mf::generate_pblock(device, report, shape, cf, opts.pblock);
    }
    ++counters_.pblock_calls;
    if (pb && std::find(seen_.begin(), seen_.end(), *pb) == seen_.end()) {
      seen_.push_back(*pb);
    }
    return pb;
  }

 private:
  Tracer* tracer_;
  OracleCounters& counters_;
  std::vector<mf::PBlock> seen_;
};

void finish(OracleCounters& counters, const SearchOutcome& out) {
  ++counters.searches;
  counters.tool_runs += out.tool_runs;
  if (out.first_run_success) ++counters.first_run_ok;
}

}  // namespace

void OracleCounters::add_metrics(Report& report) const {
  report.add("core.pblock_calls", static_cast<double>(pblock_calls), "count");
  report.add("core.pblock_distinct_share",
             pblock_calls > 0 ? static_cast<double>(pblock_distinct) /
                                    static_cast<double>(pblock_calls)
                              : 0.0,
             "share");
  report.add("place.pack_calls", static_cast<double>(pack_calls), "count");
  report.add("place.fail.carry", static_cast<double>(fail_carry), "count");
  report.add("place.fail.lut", static_cast<double>(fail_lut), "count");
  report.add("place.fail.ff", static_cast<double>(fail_ff), "count");
  report.add("place.fail.mslice", static_cast<double>(fail_mslice), "count");
  report.add("place.fail.hard", static_cast<double>(fail_hard), "count");
  report.add("place.fail.other", static_cast<double>(fail_other), "count");
  report.add("route.calls", static_cast<double>(route_calls), "count");
  report.add("route.fail.congestion", static_cast<double>(fail_congestion),
             "count");
  report.add("core.first_run_share",
             searches > 0 ? static_cast<double>(first_run_ok) /
                                static_cast<double>(searches)
                          : 0.0,
             "share");
}

SearchOutcome replay_min_cf(Tracer* tracer, OracleCounters& counters,
                            const mf::Module& module,
                            const mf::ResourceReport& report,
                            const mf::ShapeReport& shape,
                            const mf::Device& device,
                            const mf::CfSearchOptions& opts) {
  Scope span(tracer, "core.search");
  SearchOutcome out;
  PBlockSource source(tracer, counters);
  mf::PBlock last_tried;
  for (double cf = opts.start; cf <= opts.max_cf + 1e-9; cf += opts.step) {
    const std::optional<mf::PBlock> pb =
        source.at(device, report, shape, cf, opts);
    if (!pb) continue;
    if (opts.dedupe_pblocks && !last_tried.empty() && *pb == last_tried) {
      continue;  // the previous check of this rectangle was infeasible
    }
    last_tried = *pb;
    Check check = check_pblock(tracer, counters, module, report, device, *pb,
                               opts);
    ++out.tool_runs;
    if (check.feasible) {
      out.found = true;
      out.cf = cf;
      out.first_run_success = out.tool_runs == 1;
      out.pblock = *pb;
      out.place = std::move(check.place);
      break;
    }
  }
  finish(counters, out);
  return out;
}

SearchOutcome replay_seeded(Tracer* tracer, OracleCounters& counters,
                            const mf::Module& module,
                            const mf::ResourceReport& report,
                            const mf::ShapeReport& shape,
                            const mf::Device& device, double seed_cf,
                            const mf::CfSearchOptions& opts) {
  Scope span(tracer, "core.search");
  SearchOutcome out;
  PBlockSource source(tracer, counters);
  // One attempt: a CF without any PBlock still counts as a tool run, as in
  // the library's seeded search.
  auto attempt = [&](double cf) -> std::optional<SearchOutcome> {
    ++out.tool_runs;
    const std::optional<mf::PBlock> pb =
        source.at(device, report, shape, cf, opts);
    if (!pb) return std::nullopt;
    Check check = check_pblock(tracer, counters, module, report, device, *pb,
                               opts);
    if (!check.feasible) return std::nullopt;
    SearchOutcome hit;
    hit.found = true;
    hit.cf = cf;
    hit.pblock = *pb;
    hit.place = std::move(check.place);
    return hit;
  };

  const auto done = [&](SearchOutcome hit) {
    hit.tool_runs = out.tool_runs;
    hit.first_run_success = out.first_run_success;
    finish(counters, hit);
    return hit;
  };

  if (std::optional<SearchOutcome> first = attempt(seed_cf)) {
    out.first_run_success = true;
    return done(std::move(*first));
  }
  double lo = seed_cf;
  double hi = seed_cf;
  std::optional<SearchOutcome> feasible;
  for (double cf = seed_cf + 0.1; cf <= opts.max_cf + 1e-9; cf += 0.1) {
    feasible = attempt(cf);
    if (feasible) {
      hi = cf;
      break;
    }
    lo = cf;
  }
  if (!feasible) {
    finish(counters, out);
    return out;
  }
  for (double cf = lo + opts.step; cf < hi - 1e-9; cf += opts.step) {
    if (std::optional<SearchOutcome> refined = attempt(cf)) {
      return done(std::move(*refined));
    }
  }
  return done(std::move(*feasible));
}

}  // namespace bench
