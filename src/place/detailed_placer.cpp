#include "place/detailed_placer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "fabric/pblock.hpp"

namespace mf {
namespace {

struct SliceState {
  std::int16_t col = -1;
  std::int16_t row = -1;
  bool is_m = false;
  bool has_carry = false;
  std::int8_t lut_used = 0;
  std::int8_t lut_cap = kLutsPerSlice;
  std::int8_t ff_used[2] = {0, 0};
  std::int8_t ff_cap[2] = {4, 4};
  ControlSetId half_cs[2] = {kInvalidId, kInvalidId};
  ControlSetId mem_cs = kInvalidId;  ///< control set of resident SRL/LUTRAMs

  [[nodiscard]] bool used() const noexcept {
    return has_carry || lut_used > 0 || ff_used[0] > 0 || ff_used[1] > 0;
  }

  /// Half index that can take an FF of control set `cs`, or -1.
  [[nodiscard]] int ff_half_for(ControlSetId cs) const noexcept {
    for (int h = 0; h < 2; ++h) {
      if (ff_used[h] >= ff_cap[h]) continue;
      if (half_cs[h] == cs || (ff_used[h] == 0 && half_cs[h] == kInvalidId)) {
        return h;
      }
    }
    return -1;
  }
};

/// Working state of one packing run.
class Packer {
 public:
  Packer(const Module& module, const ResourceReport& report,
         const Device& device, const PBlock& pblock,
         const DetailedPlaceOptions& opts)
      : nl_(module.netlist),
        report_(report),
        device_(device),
        pblock_(pblock),
        opts_(opts) {}

  PlaceResult run() {
    PlaceResult result;
    result.placement.assign(nl_.num_cells(), CellPlacement{});
    placement_ = &result.placement;

    if (!device_.in_bounds(pblock_)) {
      result.fail_reason = "pblock out of bounds";
      return result;
    }
    build_grid();

    if (!place_hard_blocks(result)) return result;
    if (!place_carry_chains(result)) return result;
    if (!place_memory_cells(result)) return result;
    if (!place_luts(result)) return result;
    if (!place_ffs(result)) return result;

    finish(result);
    return result;
  }

 private:
  // -- grid -----------------------------------------------------------------
  void build_grid() {
    const std::vector<int> cols = clb_columns_in(device_, pblock_);
    const int height = pblock_.height();

    // Congestion-driven spreading: when the PBlock offers more slices than
    // the estimate needs, reduce per-slice occupancy so the module spreads
    // over the available area -- what real placers do with slack, and the
    // mechanism through which a larger CF relieves routing congestion.
    const FabricResources avail = device_.resources_in(pblock_);
    // Spreading engages only once there is meaningful slack (the -0.12
    // offset): at a tight fit the packer stays dense like a real placer, so
    // the used-slice count at the minimal CF stays close to the estimate
    // (Table I's tight-CF column).
    const double slack =
        static_cast<double>(avail.slices) /
        (opts_.spread_margin * std::max(1, report_.est_slices));
    spread_ = std::clamp(slack - opts_.spread_offset, 1.0, 4.0);
    const double spread = spread_;
    // Fractional per-slice occupancy target: an accumulator doles out
    // integer capacities whose running average equals 4/spread, so the
    // congestion relief grows *smoothly* with the CF instead of stepping.
    const double target_cap = 4.0 / spread;
    // M slices must stay dense enough for the module's SRL/LUTRAM cells even
    // when the global spread is generous; a fractional accumulator per class
    // keeps the running average exact (no rounding cliffs).
    const int mem_cells = report_.stats.m_lut_cells();
    const double m_target_cap =
        avail.slices_m > 0
            ? std::max(target_cap, static_cast<double>(mem_cells) /
                                       avail.slices_m)
            : target_cap;
    double cap_acc = 0.0;
    double m_cap_acc = 0.0;
    auto next_cap = [](double& acc, double target) {
      acc += target;
      const int cap = std::clamp(static_cast<int>(acc), 1, 4);
      acc -= cap;
      return static_cast<std::int8_t>(cap);
    };

    slices_.reserve(cols.size() * static_cast<std::size_t>(height));
    for (std::size_t ci = 0; ci < cols.size(); ++ci) {
      const bool is_m = device_.column(cols[ci]) == ColumnKind::ClbM;
      for (int r = 0; r < height; ++r) {
        // Snake: even columns top-down, odd columns bottom-up, so that
        // consecutive slices in the sequence are physically adjacent.
        const int row = (ci % 2 == 0) ? pblock_.row_lo + r : pblock_.row_hi - r;
        SliceState s;
        s.col = static_cast<std::int16_t>(cols[ci]);
        s.row = static_cast<std::int16_t>(row);
        s.is_m = is_m;
        const std::int8_t cap = is_m ? next_cap(m_cap_acc, m_target_cap)
                                     : next_cap(cap_acc, target_cap);
        s.lut_cap = cap;
        s.ff_cap[0] = cap;
        s.ff_cap[1] = cap;
        slices_.push_back(s);
      }
    }
    column_count_ = static_cast<int>(cols.size());
    height_ = height;
    columns_ = cols;
    // Dense (col, row) -> slice index over the PBlock, -1 off CLB columns.
    slice_index_.assign(static_cast<std::size_t>(pblock_.width()) *
                            static_cast<std::size_t>(height),
                        -1);
    for (std::size_t idx = 0; idx < slices_.size(); ++idx) {
      slice_index_[grid_offset(slices_[idx].col, slices_[idx].row)] =
          static_cast<std::int32_t>(idx);
    }
  }

  /// Offset of (col, row) in `slice_index_`; the cell must be in the PBlock.
  [[nodiscard]] std::size_t grid_offset(int col, int row) const noexcept {
    return static_cast<std::size_t>(row - pblock_.row_lo) *
               static_cast<std::size_t>(pblock_.width()) +
           static_cast<std::size_t>(col - pblock_.col_lo);
  }

  /// Try to place `cell` close to one of its already-placed input drivers
  /// (LUT next to LUTRAM/mux source, FF next to its LUT). Scans a small
  /// window of the snake around the driver's slice.
  template <typename Fits>
  bool try_near_driver(CellId cell, const Fits& fits) {
    const Cell& c = nl_.cell(cell);
    for (std::size_t k = 0; k < c.inputs.size() && k < 2; ++k) {
      const CellId driver = nl_.net(c.inputs[k]).driver;
      if (driver == kInvalidId) continue;
      const CellPlacement& dp = (*placement_)[static_cast<std::size_t>(driver)];
      if (!dp.placed()) continue;
      // 2D proximity scan: the driver's slice, then rings of neighbouring
      // columns/rows (columns first -- the adjacent column is one routing
      // hop, while +4 rows in the same column is four).
      static constexpr int kColOffsets[] = {0, -1, 1, -2, 2, -3, 3, -4, 4};
      static constexpr int kRowOffsets[] = {0, -1, 1, -2, 2, -3, 3, -4, 4};
      for (int drow : kRowOffsets) {
        for (int dcol : kColOffsets) {
          const int col = dp.col + dcol;
          const int row = dp.row + drow;
          if (!pblock_.contains(col, row)) continue;
          const std::int32_t idx = slice_index_[grid_offset(col, row)];
          if (idx < 0) continue;
          const auto slice = static_cast<std::size_t>(idx);
          if (fits(slice_at(slice))) {
            commit(cell, slice);
            return true;
          }
        }
      }
    }
    return false;
  }

  [[nodiscard]] SliceState& slice_at(std::size_t index) {
    return slices_[index];
  }

  void mark_cell(CellId cell, int col, int row) {
    (*placement_)[static_cast<std::size_t>(cell)] = {
        static_cast<std::int16_t>(col), static_cast<std::int16_t>(row)};
  }

  // -- hard blocks ----------------------------------------------------------
  bool place_hard_blocks(PlaceResult& result) {
    std::vector<CellId> bram36;
    std::vector<CellId> bram18;
    std::vector<CellId> dsp;
    for (std::size_t i = 0; i < nl_.num_cells(); ++i) {
      switch (nl_.cell(static_cast<CellId>(i)).kind) {
        case CellKind::Bram36:
          bram36.push_back(static_cast<CellId>(i));
          break;
        case CellKind::Bram18:
          bram18.push_back(static_cast<CellId>(i));
          break;
        case CellKind::Dsp48:
          dsp.push_back(static_cast<CellId>(i));
          break;
        default:
          break;
      }
    }
    if (bram36.empty() && bram18.empty() && dsp.empty()) return true;

    // Enumerate sites inside the PBlock, column-major.
    std::vector<std::pair<int, int>> bram_sites;
    std::vector<std::pair<int, int>> dsp_sites;
    for (int c = pblock_.col_lo; c <= pblock_.col_hi; ++c) {
      const ColumnKind kind = device_.column(c);
      if (kind != ColumnKind::Bram && kind != ColumnKind::Dsp) continue;
      for (int r = pblock_.row_lo; r + kBramRowPitch - 1 <= pblock_.row_hi;
           ++r) {
        if (r % kBramRowPitch != 0) continue;
        if (kind == ColumnKind::Bram) {
          bram_sites.emplace_back(c, r);
        } else {
          for (int k = 0; k < kDspPerPitch; ++k) dsp_sites.emplace_back(c, r);
        }
      }
    }

    const std::size_t bram_needed = bram36.size() + (bram18.size() + 1) / 2;
    if (bram_needed > bram_sites.size()) {
      result.fail_reason = "bram capacity";
      return false;
    }
    if (dsp.size() > dsp_sites.size()) {
      result.fail_reason = "dsp capacity";
      return false;
    }
    std::size_t site = 0;
    for (CellId cell : bram36) {
      mark_cell(cell, bram_sites[site].first, bram_sites[site].second);
      ++site;
    }
    for (std::size_t i = 0; i < bram18.size(); ++i) {
      // Two RAMB18 share one RAMB36 site.
      const auto& s = bram_sites[site + i / 2];
      mark_cell(bram18[i], s.first, s.second);
    }
    for (std::size_t i = 0; i < dsp.size(); ++i) {
      mark_cell(dsp[i], dsp_sites[i].first, dsp_sites[i].second);
    }
    return true;
  }

  // -- carry chains -----------------------------------------------------------
  bool place_carry_chains(PlaceResult& result) {
    std::map<std::int32_t, std::vector<CellId>> chains;
    for (std::size_t i = 0; i < nl_.num_cells(); ++i) {
      const Cell& cell = nl_.cell(static_cast<CellId>(i));
      if (cell.kind == CellKind::Carry4 && cell.chain != kInvalidId) {
        chains[cell.chain].push_back(static_cast<CellId>(i));
      }
    }
    if (chains.empty()) return true;

    std::vector<std::vector<CellId>> ordered;
    ordered.reserve(chains.size());
    for (auto& [id, cells] : chains) {
      std::sort(cells.begin(), cells.end(), [&](CellId a, CellId b) {
        return nl_.cell(a).chain_pos < nl_.cell(b).chain_pos;
      });
      ordered.push_back(std::move(cells));
    }
    // Longest chains first (hardest shapes).
    std::sort(ordered.begin(), ordered.end(),
              [](const auto& a, const auto& b) { return a.size() > b.size(); });

    // Balance chains over the CLB columns (least-loaded first) and pad the
    // claimed rows by the spread factor, so carry logic relaxes with the CF
    // like everything else instead of congealing in the top-left corner.
    std::vector<int> claimed(static_cast<std::size_t>(column_count_), 0);
    for (const auto& chain : ordered) {
      const int len = static_cast<int>(chain.size());
      int best = -1;
      for (int ci = 0; ci < column_count_; ++ci) {
        if (height_ - claimed[static_cast<std::size_t>(ci)] < len) continue;
        if (best < 0 || claimed[static_cast<std::size_t>(ci)] <
                            claimed[static_cast<std::size_t>(best)]) {
          best = ci;
        }
      }
      if (best < 0) {
        result.fail_reason = "carry chain does not fit";
        return false;
      }
      const int base = claimed[static_cast<std::size_t>(best)];
      for (int k = 0; k < len; ++k) {
        const std::size_t idx =
            static_cast<std::size_t>(best) * static_cast<std::size_t>(height_) +
            static_cast<std::size_t>(base + k);
        SliceState& s = slice_at(idx);
        s.has_carry = true;
        s.ff_cap[1] = 0;  // density rule: carry slices lose half their FFs
        mark_cell(chain[static_cast<std::size_t>(k)], s.col, s.row);
        attach_chain_luts(chain[static_cast<std::size_t>(k)], idx);
      }
      const int gap = static_cast<int>((spread_ - 1.0) * len);
      claimed[static_cast<std::size_t>(best)] =
          std::min(height_, base + len + gap);
    }
    return true;
  }

  /// The propagate LUTs feeding a CARRY4 live in its slice; their slots are
  /// reserved for the chain (leftover slots stay unusable, the conservative
  /// packing real tools approximate).
  void attach_chain_luts(CellId carry, std::size_t slice_index) {
    SliceState& s = slice_at(slice_index);
    const Cell& cell = nl_.cell(carry);
    for (NetId in : cell.inputs) {
      const CellId driver = nl_.net(in).driver;
      if (driver == kInvalidId) continue;
      const Cell& d = nl_.cell(driver);
      if (d.kind != CellKind::Lut) continue;
      if ((*placement_)[static_cast<std::size_t>(driver)].placed()) continue;
      if (s.lut_used >= s.lut_cap) break;
      ++s.lut_used;
      mark_cell(driver, s.col, s.row);
    }
    s.lut_used = s.lut_cap;  // reserve the remainder for the chain
  }

  // -- frontier machinery ----------------------------------------------------
  /// Generic frontier: a deque of open slice indices plus a cursor into the
  /// snake sequence. `skip` filters which slices may be opened.
  struct Frontier {
    std::deque<std::size_t> open;
    std::size_t cursor = 0;
  };

  template <typename Fits, typename Admit>
  bool place_with_frontier(Frontier& frontier, const Fits& fits,
                           const Admit& admit, CellId cell) {
    for (std::size_t k = 0; k < frontier.open.size(); ++k) {
      const std::size_t idx = frontier.open[k];
      if (fits(slice_at(idx))) {
        commit(cell, idx);
        return true;
      }
    }
    while (frontier.cursor < slices_.size()) {
      const std::size_t idx = frontier.cursor++;
      if (!admit(slice_at(idx))) continue;
      frontier.open.push_back(idx);
      if (static_cast<int>(frontier.open.size()) > opts_.frontier) {
        frontier.open.pop_front();
      }
      if (fits(slice_at(idx))) {
        commit(cell, idx);
        return true;
      }
    }
    // Out of slices at the spread density: densify (lift the reduced caps
    // back to silicon capacity) once and retry. The resulting higher pin
    // density is charged by the congestion model, so designs that *need*
    // densification (control-set fragmentation, density conflicts) pay for
    // it with a larger minimal CF -- they do not simply fail.
    if (!densified_) {
      densify();
      frontier.cursor = 0;
      frontier.open.clear();
      return place_with_frontier(frontier, fits, admit, cell);
    }
    return false;
  }

  void densify() {
    densified_ = true;
    for (SliceState& s : slices_) {
      if (!s.has_carry) {
        s.lut_cap = kLutsPerSlice;
        s.ff_cap[1] = 4;
      }
      s.ff_cap[0] = 4;
    }
    // Every frontier must rescan from the start to see the new capacity.
    mem_frontier_.cursor = 0;
    mem_frontier_.open.clear();
    lut_frontier_.cursor = 0;
    lut_frontier_.open.clear();
    ff_frontier_.cursor = 0;
    ff_frontier_.open.clear();
  }

  void commit(CellId cell, std::size_t slice_index) {
    SliceState& s = slice_at(slice_index);
    const Cell& c = nl_.cell(cell);
    switch (c.kind) {
      case CellKind::Lut:
        ++s.lut_used;
        break;
      case CellKind::Srl:
      case CellKind::LutRam:
        ++s.lut_used;
        s.mem_cs = c.control_set;
        break;
      case CellKind::Ff: {
        const int h = s.ff_half_for(c.control_set);
        MF_CHECK(h >= 0);
        s.half_cs[h] = c.control_set;
        ++s.ff_used[h];
        break;
      }
      default:
        MF_CHECK_MSG(false, "commit: unexpected cell kind");
    }
    mark_cell(cell, s.col, s.row);
  }

  // -- memory cells (SRL / LUTRAM) --------------------------------------------
  bool place_memory_cells(PlaceResult& result) {
    for (std::size_t i = 0; i < nl_.num_cells(); ++i) {
      const Cell& cell = nl_.cell(static_cast<CellId>(i));
      if (cell.kind != CellKind::Srl && cell.kind != CellKind::LutRam) {
        continue;
      }
      const ControlSetId cs = cell.control_set;
      const auto fits = [&](const SliceState& s) {
        return s.is_m && !s.has_carry && s.lut_used < s.lut_cap &&
               (s.mem_cs == kInvalidId || s.mem_cs == cs);
      };
      const auto admit = [](const SliceState& s) {
        return s.is_m && !s.has_carry;
      };
      if (!place_with_frontier(mem_frontier_, fits, admit,
                               static_cast<CellId>(i))) {
        result.fail_reason = "m-slice capacity";
        return false;
      }
    }
    return true;
  }

  // -- LUTs --------------------------------------------------------------------
  bool place_luts(PlaceResult& result) {
    for (std::size_t i = 0; i < nl_.num_cells(); ++i) {
      const Cell& cell = nl_.cell(static_cast<CellId>(i));
      if (cell.kind != CellKind::Lut) continue;
      if ((*placement_)[i].placed()) continue;  // chain-attached LUTs
      const auto fits = [](const SliceState& s) {
        return !s.has_carry && s.lut_used < s.lut_cap;
      };
      const auto admit = [](const SliceState& s) { return !s.has_carry; };
      if (try_near_driver(static_cast<CellId>(i), fits)) continue;
      if (!place_with_frontier(lut_frontier_, fits, admit,
                               static_cast<CellId>(i))) {
        result.fail_reason = "lut capacity";
        return false;
      }
    }
    return true;
  }

  // -- FFs ----------------------------------------------------------------------
  bool place_ffs(PlaceResult& result) {
    for (std::size_t i = 0; i < nl_.num_cells(); ++i) {
      const Cell& cell = nl_.cell(static_cast<CellId>(i));
      if (cell.kind != CellKind::Ff) continue;
      const ControlSetId cs = cell.control_set;
      const auto fits = [&](const SliceState& s) {
        return s.ff_half_for(cs) >= 0;
      };
      // LUT/FF pairing: prefer a slice near the driver.
      if (try_near_driver(static_cast<CellId>(i), fits)) continue;
      const auto admit = [](const SliceState&) { return true; };
      if (!place_with_frontier(ff_frontier_, fits, admit,
                               static_cast<CellId>(i))) {
        result.fail_reason = "ff packing";
        return false;
      }
    }
    return true;
  }

  // -- wrap-up --------------------------------------------------------------
  void finish(PlaceResult& result) {
    int used = 0;
    PBlock bbox;
    bool any = false;
    auto extend = [&](int col, int row) {
      if (!any) {
        bbox = PBlock{col, col, row, row};
        any = true;
      } else {
        bbox.col_lo = std::min(bbox.col_lo, col);
        bbox.col_hi = std::max(bbox.col_hi, col);
        bbox.row_lo = std::min(bbox.row_lo, row);
        bbox.row_hi = std::max(bbox.row_hi, row);
      }
    };
    for (const SliceState& s : slices_) {
      if (!s.used()) continue;
      ++used;
      extend(s.col, s.row);
    }
    for (std::size_t i = 0; i < placement_->size(); ++i) {
      const CellPlacement& p = (*placement_)[i];
      const CellKind kind = nl_.cell(static_cast<CellId>(i)).kind;
      if (p.placed() && !is_clb_cell(kind)) extend(p.col, p.row);
    }
    result.used_slices = used;
    result.used_bbox = any ? bbox : PBlock{};

    if (any) {
      const FabricResources in_bbox = device_.resources_in(bbox);
      result.fill_ratio =
          in_bbox.slices > 0
              ? static_cast<double>(used) / static_cast<double>(in_bbox.slices)
              : 0.0;
    }

    if (opts_.check_routability) {
      result.route = estimate_routability(nl_, *placement_, pblock_,
                                          opts_.route);
      if (!result.route.routable) {
        result.fail_reason = "congestion";
        return;
      }
    }
    result.feasible = true;
  }

  static bool is_clb_cell(CellKind kind) noexcept {
    switch (kind) {
      case CellKind::Lut:
      case CellKind::Ff:
      case CellKind::Carry4:
      case CellKind::Srl:
      case CellKind::LutRam:
        return true;
      default:
        return false;
    }
  }

  const Netlist& nl_;
  [[maybe_unused]] const ResourceReport& report_;
  const Device& device_;
  const PBlock& pblock_;
  const DetailedPlaceOptions& opts_;

  std::vector<SliceState> slices_;
  std::vector<std::int32_t> slice_index_;  ///< see build_grid
  std::vector<int> columns_;
  int column_count_ = 0;
  int height_ = 0;
  double spread_ = 1.0;
  bool densified_ = false;
  Placement* placement_ = nullptr;

  Frontier mem_frontier_;
  Frontier lut_frontier_;
  Frontier ff_frontier_;
};

}  // namespace

PlaceResult place_in_pblock(const Module& module, const ResourceReport& report,
                            const Device& device, const PBlock& pblock,
                            const DetailedPlaceOptions& opts) {
  Packer packer(module, report, device, pblock, opts);
  return packer.run();
}

}  // namespace mf
