#include <cstdio>
#include <fstream>

#include "bench.hpp"

namespace bench {
namespace {

/// Span name -> per-layer share metric. Shares are self time over the
/// summed root-span time of the traced op set, so they add up to 1 with
/// trace.unattributed_share: the benchmark's own time inside "op" spans,
/// including the TRACE round trip a traced serving op adds.
const std::vector<std::pair<const char*, const char*>>& share_metrics() {
  static const std::vector<std::pair<const char*, const char*>> map = {
      {"op", "trace.unattributed_share"},
      {"srv.trace", "trace.unattributed_share"},
      {"rtlgen.realize", "rtlgen.realize_share"},
      {"synth.optimize", "synth.optimize_share"},
      {"place.quick", "place.quick_share"},
      {"core.pblock", "core.pblock_share"},
      {"place.pack", "place.pack_share"},
      {"route.estimate", "route.estimate_share"},
      {"core.search", "core.search_self_share"},
      {"core.estimate", "core.estimate_share"},
      {"timing.sta", "timing.sta_share"},
      {"stitch", "stitch.share"},
      {"flow.save", "flow.save_share"},
      {"flow.load", "flow.load_share"},
      {"srv.estimate", "srv.round_trip_share"},
      {"serve.predict", "serve.predict_share"},
  };
  return map;
}

}  // namespace

std::map<std::string, SpanTotals> span_totals(
    const std::vector<const Tracer*>& tracers) {
  std::map<std::string, SpanTotals> totals;
  for (const Tracer* tracer : tracers) {
    const std::vector<Span>& spans = tracer->spans();
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    for (const Span& span : spans) {
      if (span.parent >= 0) {
        child_ns[static_cast<std::size_t>(span.parent)] +=
            span.end_ns - span.start_ns;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const double total = 1e-9 * static_cast<double>(spans[i].end_ns -
                                                       spans[i].start_ns);
      SpanTotals& t = totals[spans[i].name];
      ++t.calls;
      t.total_s += total;
      t.self_s += total - 1e-9 * static_cast<double>(child_ns[i]);
    }
  }
  return totals;
}

double dump_spans(const std::vector<const Tracer*>& tracers,
                  const std::string& path) {
  std::ofstream out(path);
  out << "thread\top\tname\tparent\tstart_ns\tend_ns\n";
  double root_s = 0.0;
  for (std::size_t t = 0; t < tracers.size(); ++t) {
    for (const Span& span : tracers[t]->spans()) {
      out << t << '\t' << span.op << '\t' << span.name << '\t' << span.parent
          << '\t' << span.start_ns << '\t' << span.end_ns << '\n';
      if (span.parent < 0) {
        root_s += 1e-9 * static_cast<double>(span.end_ns - span.start_ns);
      }
    }
  }
  const std::map<std::string, SpanTotals> totals = span_totals(tracers);
  std::printf("self time of the traced op set (%.4f s in root spans; spans "
              "in %s)\n",
              root_s, path.c_str());
  std::printf("  %-18s %9s %12s %12s %8s\n", "span", "calls", "total_s",
              "self_s", "self%");
  for (const auto& [name, t] : totals) {
    std::printf("  %-18s %9ld %12.6f %12.6f %7.2f%%\n", name.c_str(), t.calls,
                t.total_s, t.self_s,
                root_s > 0.0 ? 100.0 * t.self_s / root_s : 0.0);
  }
  return root_s;
}

void add_span_shares(Report& report,
                     const std::map<std::string, SpanTotals>& totals,
                     double op_wall_s) {
  std::map<std::string, double> self_s;  // by metric
  for (const auto& [span, metric] : share_metrics()) {
    const auto it = totals.find(span);
    self_s[metric] += it == totals.end() ? 0.0 : it->second.self_s;
  }
  for (const auto& [metric, self] : self_s) {
    report.add(metric, op_wall_s > 0.0 ? self / op_wall_s : 0.0, "share");
  }
}

}  // namespace bench
