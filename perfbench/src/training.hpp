#pragma once
// The estimator every set-up that needs one trains: the paper's production
// model (Section VIII), the NN on the Additional features, fit to a seeded
// stratified draw of the dataset sweep labelled on the xc7z020. The draw's
// seed is fixed, not the run's: every run serves and seeds from the same
// model, so the run's seed varies the requests and designs, not the model.

#include <cstdint>
#include <string>
#include <vector>

#include "core/estimator.hpp"
#include "rtlgen/sweep.hpp"

namespace bench {

/// Sweep indices ordered by generator kind, then by a size estimate taken
/// from the spec's parameters, so that runs of consecutive entries hold
/// alike modules and draws stratified over them vary little with the seed.
std::vector<std::size_t> strata_order(const std::vector<mf::GenSpec>& sweep);

/// One spec from each run of `stride` consecutive entries of `order`,
/// picked and shuffled by task_seed(seed, key).
std::vector<std::size_t> stratified_draw(const std::vector<std::size_t>& order,
                                         std::uint64_t seed,
                                         const std::string& key,
                                         std::size_t stride);

struct TrainedEstimator {
  std::vector<mf::LabeledModule> samples;  ///< the labelled draw
  mf::CfEstimator estimator{mf::EstimatorKind::NeuralNetwork,
                            mf::FeatureSet::Additional};
};

TrainedEstimator train_estimator();

}  // namespace bench
