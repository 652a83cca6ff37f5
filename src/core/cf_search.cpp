#include "core/cf_search.hpp"

#include <cmath>

#include "common/check.hpp"

namespace mf {
namespace {

/// One feasibility check: generate the PBlock at `cf` and try to place the
/// module inside it. `attempt == nullopt` with `error.failed()` means the
/// tool-run layer gave up on the check; plain nullopt means no PBlock exists
/// at this CF at all (not a tool run).
struct Attempt {
  PBlock pblock;
  PlaceResult place;
};

struct AttemptResult {
  std::optional<Attempt> attempt;
  FlowError error;
};

/// One feasibility check in `pb`: through the tool-run layer when a runner
/// is set, otherwise a direct placement, which always completes.
ToolRunner::CheckOutcome check_in_pblock(const Module& module,
                                         const ResourceReport& report,
                                         const Device& device, const PBlock& pb,
                                         double cf,
                                         const CfSearchOptions& opts) {
  const auto place = [&] {
    return place_in_pblock(module, report, device, pb, opts.place);
  };
  if (opts.runner != nullptr) {
    return opts.runner->run_check(module.name, cf, place);
  }
  ToolRunner::CheckOutcome out;
  out.completed = true;
  out.place = place();
  return out;
}

AttemptResult attempt_cf(const Module& module, const ResourceReport& report,
                         const ShapeReport& shape, const Device& device,
                         double cf, const CfSearchOptions& opts) {
  AttemptResult result;
  const std::optional<PBlock> pb =
      generate_pblock(device, report, shape, cf, opts.pblock);
  if (!pb) return result;
  ToolRunner::CheckOutcome out =
      check_in_pblock(module, report, device, *pb, cf, opts);
  if (!out.completed) {
    result.error = std::move(out.error);
    return result;
  }
  result.attempt = Attempt{*pb, std::move(out.place)};
  return result;
}

}  // namespace

CfSearchResult find_min_cf(const Module& module, const ResourceReport& report,
                           const ShapeReport& shape, const Device& device,
                           const CfSearchOptions& opts) {
  MF_CHECK_MSG(opts.step > 0.0, "CF search step must be positive");
  MF_CHECK_MSG(opts.max_cf >= opts.start,
               "CF search range is empty: max_cf must be >= start");
  CfSearchResult result;
  PBlock last_tried;
  bool last_feasible = false;

  for (double cf = opts.start; cf <= opts.max_cf + 1e-9; cf += opts.step) {
    const std::optional<PBlock> pb =
        generate_pblock(device, report, shape, cf, opts.pblock);
    if (!pb) continue;  // no rectangle at this CF (device too small)
    if (opts.dedupe_pblocks && !last_tried.empty() && *pb == last_tried) {
      if (last_feasible) {
        // Unreachable in the upward sweep (we stop at first success), but
        // kept for safety with custom callers.
        result.min_cf = cf;
        return result;
      }
      continue;
    }
    last_tried = *pb;
    ToolRunner::CheckOutcome out =
        check_in_pblock(module, report, device, *pb, cf, opts);
    if (!out.completed) {
      result.error = std::move(out.error);
      return result;
    }
    ++result.tool_runs;
    last_feasible = out.place.feasible;
    if (out.place.feasible) {
      result.found = true;
      result.min_cf = cf;
      result.pblock = *pb;
      result.place = std::move(out.place);
      return result;
    }
  }
  return result;
}

SeededSearchResult seeded_cf_search(const Module& module,
                                    const ResourceReport& report,
                                    const ShapeReport& shape,
                                    const Device& device, double seed_cf,
                                    const CfSearchOptions& opts) {
  MF_CHECK_MSG(opts.step > 0.0, "CF search step must be positive");
  MF_CHECK_MSG(seed_cf > 0.0, "seed CF must be positive");
  MF_CHECK_MSG(seed_cf <= opts.max_cf + 1e-9,
               "seed CF above max_cf: the search could never refine past the "
               "cap -- raise max_cf or fix the seed");
  SeededSearchResult result;

  // First run at the seed. Counting note: like the seed implementation, the
  // seeded search counts every *attempt* as a tool run (a no-PBlock attempt
  // still launched the tool); only an attempt the runner aborted without a
  // verdict is uncounted.
  AttemptResult first = attempt_cf(module, report, shape, device, seed_cf, opts);
  if (first.error.failed()) {
    result.error = std::move(first.error);
    return result;
  }
  ++result.tool_runs;
  if (first.attempt && first.attempt->place.feasible) {
    result.found = true;
    result.first_run_success = true;
    result.cf = seed_cf;
    result.pblock = first.attempt->pblock;
    result.place = std::move(first.attempt->place);
    return result;
  }

  // Coarse upward steps of 0.1.
  double lo = seed_cf;
  double hi = seed_cf;
  std::optional<Attempt> feasible;
  for (double cf = seed_cf + 0.1; cf <= opts.max_cf + 1e-9; cf += 0.1) {
    AttemptResult attempt =
        attempt_cf(module, report, shape, device, cf, opts);
    if (attempt.error.failed()) {
      result.error = std::move(attempt.error);
      return result;
    }
    ++result.tool_runs;
    if (attempt.attempt && attempt.attempt->place.feasible) {
      hi = cf;
      feasible = std::move(attempt.attempt);
      break;
    }
    lo = cf;
  }
  if (!feasible) return result;

  // Refine (lo, hi] at the fine resolution; keep the smallest feasible CF.
  for (double cf = lo + opts.step; cf < hi - 1e-9; cf += opts.step) {
    AttemptResult attempt =
        attempt_cf(module, report, shape, device, cf, opts);
    if (attempt.error.failed()) {
      result.error = std::move(attempt.error);
      return result;
    }
    ++result.tool_runs;
    if (attempt.attempt && attempt.attempt->place.feasible) {
      result.found = true;
      result.cf = cf;
      result.pblock = attempt.attempt->pblock;
      result.place = std::move(attempt.attempt->place);
      return result;
    }
  }
  result.found = true;
  result.cf = hi;
  result.pblock = feasible->pblock;
  result.place = std::move(feasible->place);
  return result;
}

}  // namespace mf
