#pragma once
// Routability proxy.
//
// Stands in for the router's verdict when deciding whether a module fits a
// PBlock (Figure 1: "place & route within the PBlock ... otherwise the flow
// will stop"). Demand is accumulated on a congestion grid: every net smears
// a wirelength-and-fanout weighted demand over its bounding box, and every
// control set contributes a virtual broadcast net over its member cells
// (Section V-D: high-fanout resets/enables need routing channels too).
// A region is routable when the near-peak grid congestion stays under the
// per-cell channel capacity.
//
// The same congestion grid feeds the timing model: congested regions give
// detoured, slower wires -- which reproduces the paper's Table I inversion
// (tighter PBlock -> fewer slices but longer critical path).

#include <vector>

#include "fabric/device.hpp"
#include "netlist/netlist.hpp"
#include "place/placement.hpp"

namespace mf {

struct RoutabilityOptions {
  /// Routing units available per grid cell (the main calibration knob).
  double cell_capacity = 17.5;
  /// Demand contributed by each placed pin to its own cell (control-set
  /// pins included). Pin density thins out linearly as the placer spreads,
  /// so this term makes congestion relief proportional to the CF.
  double pin_demand = 0.25;
  /// Scale on bounding-box wire demand (global, shape-dependent term).
  double wire_scale = 0.06;
  /// Escape-channel demand per extra sink, concentrated in the 3x3
  /// neighbourhood of the driver: high-fanout nets hotspot their source.
  double fanout_escape = 0.60;
  /// Extra wire demand per unit of sqrt(fanout - 1).
  double fanout_weight = 0.12;
  /// Demand added at each CARRY4 cell: rigid chains monopolise the vertical
  /// routing in their column and cannot detour, so carry-dense regions leave
  /// less flexibility for everything else (Section V-C / V-E).
  double carry_demand = 3.0;
  /// Control-set broadcast nets are partially served by semi-dedicated
  /// routing; scale their demand down by this factor.
  double control_scale = 0.5;
  /// Quantile of grid congestion that must stay below capacity.
  double peak_quantile = 0.99;
};

struct RouteEstimate {
  bool routable = false;
  double peak = 0.0;  ///< peak_quantile congestion / capacity
  double mean = 0.0;  ///< average congestion / capacity
  int grid_w = 0;
  int grid_h = 0;
  int col0 = 0;  ///< grid origin in device coordinates
  int row0 = 0;
  std::vector<double> demand;  ///< row-major [grid_w * grid_h]

  /// Congestion ratio (demand / capacity) at a device coordinate; clamped to
  /// the grid, 0 outside.
  [[nodiscard]] double congestion_at(int col, int row,
                                     double capacity) const noexcept;
};

/// Estimate congestion for `netlist` placed per `placement` inside `region`.
/// Every placed cell must lie inside `region`: a net whose bounding box
/// leaves it fails with CheckError.
RouteEstimate estimate_routability(const Netlist& netlist,
                                   const Placement& placement,
                                   const PBlock& region,
                                   const RoutabilityOptions& opts = {});

}  // namespace mf
