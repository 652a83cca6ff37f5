#pragma once
// PBlock generation -- the Figure 1 algorithm.
//
// Given synthesis resource counts and the quick-placement shape report, the
// generator sizes a rectangle whose slice count is `est_slices * CF`, keeps
// the shape report's aspect ratio and carry-chain minimum height constant
// (RapidWright's "constant PBlocks aspect ratio, W/L"), and then slides it
// over the device to the first anchor whose column mix also satisfies the
// M-slice / BRAM / DSP needs. Because hard-block needs can force a rectangle
// larger than `est_slices * CF`, small CFs stop changing the PBlock for
// hard-block-dominated modules -- the paper's explanation for the sub-0.7
// bins of Figure 4.

#include <optional>

#include "fabric/device.hpp"
#include "place/quick_placer.hpp"
#include "synth/report.hpp"

namespace mf {

/// How the generator picks among the anchor positions that cover the needs.
/// The paper leaves PBlock *position* to future work ("their position is not
/// studied here"); MinWaste implements the obvious next step: prefer windows
/// that waste no hard-block columns the module does not use -- such windows
/// also relocate to more places during stitching.
enum class AnchorPolicy : int {
  FirstFit,  ///< leftmost covering window (the baseline behaviour)
  MinWaste,  ///< minimise surplus slices + unneeded BRAM/DSP columns
};

struct PBlockGenOptions {
  /// Preferred top-left anchor; the generator scans right/down from here.
  int anchor_col = 0;
  int anchor_row = 0;
  AnchorPolicy policy = AnchorPolicy::FirstFit;
};

/// Build the PBlock for `report` at correction factor `cf`; nullopt when no
/// position on `device` satisfies the resource needs at any width. Throws
/// CheckError on a negative anchor.
std::optional<PBlock> generate_pblock(const Device& device,
                                      const ResourceReport& report,
                                      const ShapeReport& shape, double cf,
                                      const PBlockGenOptions& opts = {});

/// The rectangle dimensions Figure 1 derives before anchoring: height from
/// the aspect ratio (respecting the carry minimum), width from the slice
/// target. Exposed for tests and the resolution study.
struct PBlockDims {
  int width = 1;
  int height = 1;
};
PBlockDims pblock_dims(const ResourceReport& report, const ShapeReport& shape,
                       double cf, const Device& device);

}  // namespace mf
