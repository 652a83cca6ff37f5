#include "route/routability.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace mf {
namespace {

struct Bbox {
  int c0 = 0;
  int c1 = -1;
  int r0 = 0;
  int r1 = -1;
  int pins = 0;

  void add(const CellPlacement& p) {
    if (!p.placed()) return;
    if (pins == 0) {
      c0 = c1 = p.col;
      r0 = r1 = p.row;
    } else {
      c0 = std::min<int>(c0, p.col);
      c1 = std::max<int>(c1, p.col);
      r0 = std::min<int>(r0, p.row);
      r1 = std::max<int>(r1, p.row);
    }
    ++pins;
  }

  [[nodiscard]] int hpwl() const noexcept {
    return pins < 2 ? 0 : (c1 - c0) + (r1 - r0);
  }
};

}  // namespace

double RouteEstimate::congestion_at(int col, int row,
                                    double capacity) const noexcept {
  if (capacity <= 0.0 || demand.empty()) return 0.0;
  const int c = std::clamp(col - col0, 0, grid_w - 1);
  const int r = std::clamp(row - row0, 0, grid_h - 1);
  return demand[static_cast<std::size_t>(r) * static_cast<std::size_t>(grid_w) +
                static_cast<std::size_t>(c)] /
         capacity;
}

RouteEstimate estimate_routability(const Netlist& netlist,
                                   const Placement& placement,
                                   const PBlock& region,
                                   const RoutabilityOptions& opts) {
  MF_CHECK(placement.size() == netlist.num_cells());
  RouteEstimate est;
  est.col0 = region.col_lo;
  est.row0 = region.row_lo;
  est.grid_w = region.width();
  est.grid_h = region.height();
  est.demand.assign(
      static_cast<std::size_t>(est.grid_w) * static_cast<std::size_t>(est.grid_h),
      0.0);

  auto at = [&](int col, int row) -> double& {
    const int c = std::clamp(col - est.col0, 0, est.grid_w - 1);
    const int r = std::clamp(row - est.row0, 0, est.grid_h - 1);
    return est.demand[static_cast<std::size_t>(r) *
                          static_cast<std::size_t>(est.grid_w) +
                      static_cast<std::size_t>(c)];
  };

  // Every box lies inside the grid (placed cells lie in the region, escape
  // boxes are clipped to it), so each row of a box is one contiguous span of
  // `demand`. Each cell takes its adds in box order: that order fixes the
  // grid's bits, which timing reads.
  auto smear = [&](const Bbox& box, double total) {
    if (total <= 0.0 || box.pins == 0) return;
    MF_CHECK(box.c0 >= est.col0 && box.c1 < est.col0 + est.grid_w &&
             box.r0 >= est.row0 && box.r1 < est.row0 + est.grid_h);
    const int span = box.c1 - box.c0 + 1;
    const long cells = static_cast<long>(span) * (box.r1 - box.r0 + 1);
    const double per_cell = total / static_cast<double>(cells);
    for (int r = box.r0; r <= box.r1; ++r) {
      double* row = est.demand.data() +
                    static_cast<std::size_t>(r - est.row0) *
                        static_cast<std::size_t>(est.grid_w) +
                    static_cast<std::size_t>(box.c0 - est.col0);
      for (int c = 0; c < span; ++c) row[c] += per_cell;
    }
  };

  auto wire_demand = [&](const Bbox& box, int fanout) {
    const double weight =
        1.0 + opts.fanout_weight *
                  std::sqrt(static_cast<double>(std::max(fanout - 1, 0)));
    return (static_cast<double>(box.hpwl()) + 1.0) * weight *
           opts.wire_scale;
  };

  // Escape demand around a driver: high-fanout nets need many channels out
  // of their source neighbourhood regardless of where the sinks sit. The
  // neighbourhood radius grows with sqrt(fanout) -- a 300-load net congests
  // a whole region, not just the adjacent channels -- which keeps the
  // effect's *relative* strength independent of module size.
  auto escape = [&](const CellPlacement& p, int fanout) {
    const double total =
        opts.fanout_escape * static_cast<double>(std::max(fanout - 1, 0));
    if (total <= 0.0 || !p.placed()) return;
    const int radius =
        1 + static_cast<int>(std::sqrt(static_cast<double>(fanout)) / 8.0);
    Bbox box;
    box.add(p);
    box.c0 = std::max(box.c0 - radius, est.col0);
    box.r0 = std::max(box.r0 - radius, est.row0);
    box.c1 = std::min(box.c1 + radius, est.col0 + est.grid_w - 1);
    box.r1 = std::min(box.r1 + radius, est.row0 + est.grid_h - 1);
    smear(box, total);
  };

  // Signal nets.
  for (const Net& net : netlist.nets()) {
    if (net.is_clock) continue;
    Bbox box;
    if (net.driver != kInvalidId) {
      box.add(placement[static_cast<std::size_t>(net.driver)]);
    }
    for (CellId sink : net.sinks) {
      box.add(placement[static_cast<std::size_t>(sink)]);
    }
    if (box.pins < 2) continue;
    smear(box, wire_demand(box, net.fanout()));
    if (net.driver != kInvalidId) {
      escape(placement[static_cast<std::size_t>(net.driver)], net.fanout());
    }
  }

  // Control-set broadcast nets (reset / enable distribution).
  std::vector<Bbox> control_boxes(netlist.num_control_sets());
  for (std::size_t i = 0; i < netlist.num_cells(); ++i) {
    const Cell& cell = netlist.cell(static_cast<CellId>(i));
    if (cell.control_set == kInvalidId) continue;
    control_boxes[static_cast<std::size_t>(cell.control_set)].add(
        placement[i]);
  }
  for (const Bbox& box : control_boxes) {
    if (box.pins < 2) continue;
    smear(box, wire_demand(box, box.pins) * opts.control_scale);
  }

  // Per-pin local demand (control pins count: resets/enables land on real
  // slice pins too).
  for (std::size_t i = 0; i < netlist.num_cells(); ++i) {
    const CellPlacement& p = placement[i];
    if (!p.placed()) continue;
    const Cell& cell = netlist.cell(static_cast<CellId>(i));
    double pins = static_cast<double>(
        cell.inputs.size() + (cell.out != kInvalidId) +
        (cell.control_set != kInvalidId ? 3 : 0));
    // SRL/LUTRAM cells share the slice-wide write address and clock-enable
    // lines, so their effective per-cell pin load is roughly halved.
    if (cell.kind == CellKind::Srl || cell.kind == CellKind::LutRam) {
      pins *= 0.5;
    }
    at(p.col, p.row) += opts.pin_demand * pins;
    if (cell.kind == CellKind::Carry4) {
      at(p.col, p.row) += opts.carry_demand;
    }
  }

  // 3x3 box blur: routing overflow spills into neighbouring channels, and
  // the blur keeps single-cell spikes (tiny PBlocks, escape hotspots) from
  // dominating the quantile.
  {
    std::vector<double> blurred(est.demand.size(), 0.0);
    for (int r = 0; r < est.grid_h; ++r) {
      for (int c = 0; c < est.grid_w; ++c) {
        double sum = 0.0;
        int count = 0;
        for (int dr = -1; dr <= 1; ++dr) {
          for (int dc = -1; dc <= 1; ++dc) {
            const int rr = r + dr;
            const int cc = c + dc;
            if (rr < 0 || rr >= est.grid_h || cc < 0 || cc >= est.grid_w) {
              continue;
            }
            sum += est.demand[static_cast<std::size_t>(rr) *
                                  static_cast<std::size_t>(est.grid_w) +
                              static_cast<std::size_t>(cc)];
            ++count;
          }
        }
        blurred[static_cast<std::size_t>(r) *
                    static_cast<std::size_t>(est.grid_w) +
                static_cast<std::size_t>(c)] = sum / count;
      }
    }
    est.demand = std::move(blurred);
  }

  // Verdict: near-peak congestion under capacity.
  std::vector<double> sorted = est.demand;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t idx = std::min(
      sorted.size() - 1,
      static_cast<std::size_t>(opts.peak_quantile *
                               static_cast<double>(sorted.size())));
  est.peak = sorted[idx] / opts.cell_capacity;
  double sum = 0.0;
  for (double d : sorted) sum += d;
  est.mean = sum / (static_cast<double>(sorted.size()) * opts.cell_capacity);
  est.routable = est.peak <= 1.0;
  return est;
}

}  // namespace mf
