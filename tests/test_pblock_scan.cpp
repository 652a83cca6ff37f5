// Differential test of generate_pblock's anchor-row scan.
//
// The generator stops scanning anchor rows one kBramRowPitch below the
// requested anchor row: a window's resources depend on its top row only
// through row mod kBramRowPitch, so rows further down repeat rows already
// tried. The reference below is the full scan over every anchor row, with
// the BRAM/DSP site counts evaluated per column, as the generator did before
// the scan was bounded; both must return the same PBlock (or none) for every
// device, anchor, policy, CF and module tried.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "core/pblock_generator.hpp"
#include "fabric/catalog.hpp"
#include "rtlgen/sweep.hpp"
#include "synth/optimize.hpp"

namespace mf {
namespace {

std::optional<PBlock> reference_generate_pblock(const Device& device,
                                                const ResourceReport& report,
                                                const ShapeReport& shape,
                                                double cf,
                                                const PBlockGenOptions& opts) {
  FabricResources needs;
  needs.slices =
      std::max(1, static_cast<int>(std::ceil(report.est_slices * cf)));
  needs.slices_m = static_cast<int>(
      std::ceil(report.est_slices_m * std::max(1.0, cf)));
  needs.bram36 = report.bram36;
  needs.dsp = report.dsp;
  PBlockDims dims = pblock_dims(report, shape, cf, device);
  const int hard_rows =
      std::max(needs.bram36, (needs.dsp + kDspPerPitch - 1) / kDspPerPitch) *
      kBramRowPitch;
  if (hard_rows > dims.height) {
    dims.height = std::min(hard_rows + 1, device.rows());
  }
  for (int width = dims.width; width <= device.num_columns(); ++width) {
    for (int row0 = opts.anchor_row; row0 + dims.height <= device.rows();
         ++row0) {
      const int row_hi = row0 + dims.height - 1;
      FabricResources window;
      int lo = 0;
      auto add_col = [&](int c, int sign) {
        switch (device.column(c)) {
          case ColumnKind::ClbL:
            window.slices += sign * dims.height;
            break;
          case ColumnKind::ClbM:
            window.slices += sign * dims.height;
            window.slices_m += sign * dims.height;
            break;
          case ColumnKind::Bram:
            window.bram36 += sign * Device::bram_sites_in_rows(row0, row_hi);
            break;
          case ColumnKind::Dsp:
            window.dsp += sign * Device::dsp_sites_in_rows(row0, row_hi);
            break;
          case ColumnKind::Clock:
            break;
        }
      };
      for (int c = 0; c < width && c < device.num_columns(); ++c) {
        add_col(c, +1);
      }
      PBlock best{};
      double best_score = 0.0;
      for (int hi = width - 1; hi < device.num_columns(); ++hi) {
        if (hi >= width) {
          add_col(hi, +1);
          add_col(lo, -1);
          ++lo;
        }
        if (lo < opts.anchor_col || !window.covers(needs)) continue;
        if (opts.policy == AnchorPolicy::FirstFit) {
          return PBlock{lo, hi, row0, row_hi};
        }
        const double score =
            (window.slices - needs.slices) +
            25.0 * std::max(0, window.bram36 - needs.bram36) +
            25.0 * std::max(0, window.dsp - needs.dsp);
        if (best.empty() || score < best_score) {
          best = PBlock{lo, hi, row0, row_hi};
          best_score = score;
        }
      }
      if (!best.empty()) return best;
    }
    if (width == device.num_columns()) break;
  }
  return std::nullopt;
}

struct Case {
  ResourceReport report;
  ShapeReport shape;
};

/// Real modules from across the dataset sweep, plus hand-made reports that
/// lean on BRAM, DSP and M-slice needs (the row-dependent resources).
std::vector<Case> cases() {
  std::vector<Case> out;
  const std::vector<GenSpec> specs = dataset_sweep({2000, 42});
  for (std::size_t i = 0; i < specs.size(); i += 200) {
    Module m = realize(specs[i]);
    optimize(m.netlist);
    Case c;
    c.report = make_report(m.netlist);
    c.shape = quick_place(c.report);
    out.push_back(c);
  }
  struct Synthetic {
    int slices, slices_m, bram36, dsp, bbox_w, bbox_h, min_height;
  };
  for (const Synthetic& s : std::initializer_list<Synthetic>{
           {12, 0, 1, 0, 3, 4, 1},
           {40, 6, 3, 4, 6, 7, 1},
           {90, 0, 0, 9, 8, 12, 12},
           {150, 30, 8, 0, 14, 11, 3},
           {60, 0, 2, 25, 4, 15, 20},
           {300, 80, 12, 40, 20, 15, 8},
           {25, 25, 0, 0, 5, 5, 2},
       }) {
    Case c;
    c.report.est_slices = s.slices;
    c.report.est_slices_m = s.slices_m;
    c.report.bram36 = s.bram36;
    c.report.dsp = s.dsp;
    c.shape.bbox_w = s.bbox_w;
    c.shape.bbox_h = s.bbox_h;
    c.shape.min_height = s.min_height;
    out.push_back(c);
  }
  return out;
}

TEST(PBlockScan, BoundedScanMatchesFullRowReference) {
  // 42 rows: not a multiple of the pitch, so the last anchors see a partial
  // pitch at the bottom edge.
  const std::vector<Device> devices = {
      xc7z020_model(), xc7z045_model(),
      make_device("synthetic", 14, 3, 2, 2, 42, 21)};
  const std::vector<Case> all = cases();
  int compared = 0;
  int found = 0;
  for (const Device& dev : devices) {
    for (const Case& c : all) {
      // Anchor row 1 puts the first site-aligned row at the last row of the
      // pitch the scan covers, so a scan one row short fails there.
      for (int anchor_row : {0, 1, 3, 7}) {
        for (AnchorPolicy policy :
             {AnchorPolicy::FirstFit, AnchorPolicy::MinWaste}) {
          PBlockGenOptions opts;
          opts.anchor_row = anchor_row;
          opts.policy = policy;
          for (int step = 0; step <= 20; ++step) {
            const double cf = 0.5 + 0.125 * step;
            const std::optional<PBlock> got =
                generate_pblock(dev, c.report, c.shape, cf, opts);
            const std::optional<PBlock> want =
                reference_generate_pblock(dev, c.report, c.shape, cf, opts);
            ASSERT_EQ(got.has_value(), want.has_value())
                << dev.name() << " cf " << cf << " anchor_row " << anchor_row;
            if (got) {
              ASSERT_EQ(*got, *want)
                  << dev.name() << " cf " << cf << " anchor_row "
                  << anchor_row << " policy " << static_cast<int>(policy);
              ++found;
            }
            ++compared;
          }
        }
      }
    }
  }
  // The comparison must exercise both outcomes.
  EXPECT_GT(found, 0);
  EXPECT_LT(found, compared);
}

TEST(PBlockScan, SiteCountsRepeatEveryPitch) {
  for (int row_lo = 0; row_lo < 60; ++row_lo) {
    for (int height = 0; height <= 60; ++height) {
      const int row_hi = row_lo + height - 1;
      EXPECT_EQ(Device::bram_sites_in_rows(row_lo, row_hi),
                Device::bram_sites_in_rows(row_lo + kBramRowPitch,
                                           row_hi + kBramRowPitch))
          << row_lo << ".." << row_hi;
      EXPECT_EQ(Device::dsp_sites_in_rows(row_lo, row_hi),
                Device::dsp_sites_in_rows(row_lo + kBramRowPitch,
                                          row_hi + kBramRowPitch))
          << row_lo << ".." << row_hi;
    }
  }
}

TEST(PBlockScan, NegativeAnchorIsRejected) {
  const Device dev = xc7z020_model();
  ResourceReport report;
  report.est_slices = 10;
  PBlockGenOptions opts;
  opts.anchor_row = -1;
  EXPECT_THROW((void)generate_pblock(dev, report, ShapeReport{}, 1.0, opts),
               CheckError);
}

}  // namespace
}  // namespace mf
