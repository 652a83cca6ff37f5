#include "stitch/engine.hpp"

#include <cstdio>
#include <cstring>

namespace mf {

std::optional<StitchEngine> stitch_engine_from_string(
    std::string_view name) noexcept {
  if (name == "sa") return StitchEngine::Sa;
  if (name == "evo") return StitchEngine::Evo;
  return std::nullopt;
}

std::optional<std::string> stitch_options_error(const StitchOptions& opts) {
  if (opts.restarts < 1) {
    return "stitch restarts must be >= 1 (got " +
           std::to_string(opts.restarts) + ")";
  }
  if (opts.jobs < 0) {
    return "stitch jobs must be >= 0 (got " + std::to_string(opts.jobs) + ")";
  }
  if (opts.evo_population < 2) {
    return "evolutionary population must be >= 2 (got " +
           std::to_string(opts.evo_population) + ")";
  }
  return std::nullopt;
}

std::string trace_to_text(const StitchResult& result) {
  std::string out = "macroflow-cost-trace v1 engine=" + result.engine +
                    " samples=" + std::to_string(result.cost_trace.size()) +
                    "\n";
  char buf[64];
  for (const auto& [move, cost] : result.cost_trace) {
    unsigned long long bits = 0;
    static_assert(sizeof bits == sizeof cost);
    std::memcpy(&bits, &cost, sizeof bits);
    std::snprintf(buf, sizeof buf, "%ld %016llx\n", move, bits);
    out += buf;
  }
  return out;
}

}  // namespace mf
