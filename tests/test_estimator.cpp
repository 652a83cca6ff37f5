// CfEstimator facade + end-to-end estimator-in-the-flow integration.

#include "core/estimator.hpp"

#include <gtest/gtest.h>

#include "fabric/catalog.hpp"
#include "flow/ground_truth.hpp"
#include "flow/rw_flow.hpp"
#include "ml/metrics.hpp"
#include "synth/optimize.hpp"

namespace mf {
namespace {

/// Shared ground truth over a small sweep (built once; ~1-2 s).
class EstimatorFixture : public ::testing::Test {
 protected:
  static const GroundTruth& truth() {
    static const GroundTruth instance = [] {
      const Device dev = xc7z020_model();
      return build_ground_truth(dataset_sweep({250, 21}), dev);
    }();
    return instance;
  }
};

TEST_F(EstimatorFixture, GroundTruthIsUsable) {
  EXPECT_GT(truth().samples.size(), 200u);
}

TEST_F(EstimatorFixture, UntrainedEstimatorRejectsQueries) {
  CfEstimator est(EstimatorKind::DecisionTree, FeatureSet::Additional);
  EXPECT_FALSE(est.trained());
  EXPECT_THROW(
      static_cast<void>(est.predict_row({0.1, 0.2, 0.3, 0.4, 0.5, 0.6})),
      CheckError);
}

TEST_F(EstimatorFixture, FeatureSetMismatchRejected) {
  CfEstimator est(EstimatorKind::DecisionTree, FeatureSet::Additional);
  const Dataset wrong =
      make_dataset(FeatureSet::ClassicalStar, truth().samples);
  EXPECT_THROW(est.train(wrong), CheckError);
}

class EstimatorKindTest
    : public ::testing::TestWithParam<EstimatorKind> {
 protected:
  static const GroundTruth& truth() {
    static const GroundTruth instance = [] {
      const Device dev = xc7z020_model();
      return build_ground_truth(dataset_sweep({250, 21}), dev);
    }();
    return instance;
  }
};

TEST_P(EstimatorKindTest, TrainsAndPredictsInRange) {
  const FeatureSet set = GetParam() == EstimatorKind::LinearRegression
                             ? FeatureSet::LinReg9
                             : FeatureSet::All;
  CfEstimator::Options options;
  options.rforest.trees = 60;  // keep unit-test runtime low
  options.mlp.epochs = 80;
  CfEstimator est(GetParam(), set, options);
  const Dataset data = make_dataset(set, truth().samples);
  est.train(data);
  EXPECT_TRUE(est.trained());

  const auto pred = est.predict_rows(data.x);
  const double err = mean_relative_error(pred, data.y);
  // In-sample error should be clearly better than guessing the midpoint.
  EXPECT_LT(err, 0.15) << to_string(GetParam());
  for (double v : pred) {
    EXPECT_GT(v, 0.3);
    EXPECT_LT(v, 3.5);
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, EstimatorKindTest,
                         ::testing::Values(EstimatorKind::LinearRegression,
                                           EstimatorKind::NeuralNetwork,
                                           EstimatorKind::DecisionTree,
                                           EstimatorKind::RandomForest));

TEST_F(EstimatorFixture, TreeImportancesExposed) {
  CfEstimator::Options options;
  CfEstimator tree(EstimatorKind::DecisionTree, FeatureSet::Additional,
                   options);
  tree.train(make_dataset(FeatureSet::Additional, truth().samples));
  const std::vector<double> imp = tree.feature_importance();
  ASSERT_EQ(imp.size(), feature_names(FeatureSet::Additional).size());
  double total = 0.0;
  for (double v : imp) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_F(EstimatorFixture, NonTreeModelsHaveNoImportance) {
  CfEstimator lin(EstimatorKind::LinearRegression, FeatureSet::LinReg9);
  lin.train(make_dataset(FeatureSet::LinReg9, truth().samples));
  EXPECT_TRUE(lin.feature_importance().empty());
}

TEST_F(EstimatorFixture, EstimateFromReports) {
  CfEstimator est(EstimatorKind::DecisionTree, FeatureSet::Additional);
  est.train(make_dataset(FeatureSet::Additional, truth().samples));
  const LabeledModule& sample = truth().samples.front();
  const double cf = est.estimate(sample.report, sample.shape);
  EXPECT_GT(cf, 0.5);
  EXPECT_LT(cf, 3.0);
}

TEST_F(EstimatorFixture, EstimatorPolicyBeatsConstantLowSeed) {
  // Section VIII integration: an estimator-seeded flow needs fewer tool runs
  // than the constant-CF=0.9 search on unseen modules.
  const Device dev = xc7z020_model();
  CfEstimator est(EstimatorKind::RandomForest, FeatureSet::Additional,
                  [] {
                    CfEstimator::Options o;
                    o.rforest.trees = 80;
                    return o;
                  }());
  est.train(make_dataset(FeatureSet::Additional, truth().samples));

  // Fresh modules from a different sweep seed; take the random Mixed tail
  // (the grid prefix of the sweep is seed-independent).
  std::vector<GenSpec> specs = dataset_sweep({700, 77});
  specs.erase(specs.begin(), specs.end() - 40);
  RwFlowOptions opts;
  opts.compute_timing = false;
  int runs_estimator = 0;
  int runs_constant = 0;
  int compared = 0;
  for (const GenSpec& spec : specs) {
    if (spec.kind != GenKind::Mixed) continue;  // unseen-ish family mix
    Module module = realize(spec);
    const ImplementedBlock with_est = [&] {
      Module copy = module;
      optimize(copy.netlist);
      const ResourceReport report = make_report(copy.netlist);
      const double cf = est.estimate(report, quick_place(report));
      return implement_block(module, dev, cf, opts);
    }();
    const ImplementedBlock with_const = implement_block(module, dev, 0.9,
                                                        opts);
    if (!with_est.ok() || !with_const.ok()) continue;
    runs_estimator += with_est.macro.tool_runs;
    runs_constant += with_const.macro.tool_runs;
    ++compared;
  }
  ASSERT_GT(compared, 5);
  EXPECT_LT(runs_estimator, runs_constant);
}

}  // namespace
}  // namespace mf
