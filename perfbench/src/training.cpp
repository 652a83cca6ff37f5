#include "training.hpp"

#include <algorithm>
#include <type_traits>
#include <variant>

#include "common/rng.hpp"
#include "fabric/catalog.hpp"
#include "flow/ground_truth.hpp"

namespace bench {
namespace {

constexpr std::size_t kTrainStride = 10;  ///< 200 of the 2,000 sweep specs
constexpr std::uint64_t kTrainSeed = 2025;

/// Rough cell count of the module a spec describes.
double size_estimate(const mf::GenSpec& spec) {
  return std::visit(
      [](const auto& p) -> double {
        using P = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<P, mf::ShiftRegParams>) {
          return p.chains * (p.depth + 1.0);
        } else if constexpr (std::is_same_v<P, mf::LutRamParams>) {
          return p.width * (p.depth / 32.0 + 1.0);
        } else if constexpr (std::is_same_v<P, mf::CarryParams>) {
          return p.terms * p.width * 3.0;
        } else if constexpr (std::is_same_v<P, mf::LfsrParams>) {
          return p.count * (2.0 * p.width + p.srl_delay);
        } else if constexpr (std::is_same_v<P, mf::FirParams>) {
          return p.taps * p.width * 2.0;
        } else if constexpr (std::is_same_v<P, mf::FsmParams>) {
          return p.state_bits * p.transitions_per_state + p.outputs;
        } else {
          return p.luts + p.ffs + p.carry_adders * p.carry_width + p.srls +
                 p.lutrams;
        }
      },
      spec.params);
}

}  // namespace

std::vector<std::size_t> strata_order(const std::vector<mf::GenSpec>& sweep) {
  std::vector<std::size_t> order(sweep.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (sweep[a].kind != sweep[b].kind) {
                       return sweep[a].kind < sweep[b].kind;
                     }
                     return size_estimate(sweep[a]) < size_estimate(sweep[b]);
                   });
  return order;
}

std::vector<std::size_t> stratified_draw(const std::vector<std::size_t>& order,
                                         std::uint64_t seed,
                                         const std::string& key,
                                         std::size_t stride) {
  mf::Rng rng(mf::task_seed(seed, key));
  std::vector<std::size_t> draw;
  for (std::size_t base = 0; base + stride <= order.size(); base += stride) {
    draw.push_back(order[base + rng.index(stride)]);
  }
  rng.shuffle(draw);
  return draw;
}

TrainedEstimator train_estimator() {
  const std::vector<mf::GenSpec> sweep = mf::dataset_sweep();
  std::vector<mf::GenSpec> specs;
  for (std::size_t index :
       stratified_draw(strata_order(sweep), kTrainSeed, "train", kTrainStride)) {
    specs.push_back(sweep[index]);
  }
  TrainedEstimator trained;
  trained.samples =
      mf::build_ground_truth(specs, mf::xc7z020_model(), {}, 1).samples;
  mf::Rng rng(mf::task_seed(kTrainSeed, "balance"));
  trained.estimator.train(mf::balance_by_target(
      mf::make_dataset(mf::FeatureSet::Additional, trained.samples), 0.02, 75,
      rng));
  return trained;
}

}  // namespace bench
