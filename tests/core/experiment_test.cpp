#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include "util/check.hpp"

namespace linkpad::core {
namespace {

ExperimentSpec quick_spec(classify::FeatureKind feature, std::size_t n = 400) {
  ExperimentSpec spec;
  spec.scenario = lab_zero_cross(make_cit());
  spec.plan.adversary.feature = feature;
  spec.plan.adversary.window_size = n;
  spec.plan.train_windows = 60;
  spec.plan.test_windows = 60;
  spec.seed = 1;
  return spec;
}

TEST(Experiment, CitLeaksThroughVarianceFeature) {
  const auto r =
      ExperimentEngine().run(quick_spec(classify::FeatureKind::kSampleVariance));
  EXPECT_GT(r.detection_rate, 0.75);
  EXPECT_GT(r.r_hat, 1.15);
  ASSERT_TRUE(r.predicted.has_value());
  EXPECT_NEAR(r.detection_rate, *r.predicted, 0.12);
}

TEST(Experiment, CitLeaksThroughEntropyFeature) {
  const auto r =
      ExperimentEngine().run(quick_spec(classify::FeatureKind::kSampleEntropy));
  EXPECT_GT(r.detection_rate, 0.72);
}

TEST(Experiment, MeanFeatureStaysNearChance) {
  const auto r =
      ExperimentEngine().run(quick_spec(classify::FeatureKind::kSampleMean));
  EXPECT_LT(r.detection_rate, 0.65);
}

TEST(Experiment, VitShutsTheLeakDown) {
  auto spec = quick_spec(classify::FeatureKind::kSampleVariance);
  spec.scenario = lab_zero_cross(make_vit(100e-6));
  const auto r = ExperimentEngine().run(spec);
  EXPECT_LT(r.detection_rate, 0.62);
  EXPECT_LT(r.r_hat, 1.05);
}

TEST(Experiment, PiatMeansEqualAcrossRates) {
  const auto r =
      ExperimentEngine().run(quick_spec(classify::FeatureKind::kSampleVariance));
  // Paper Sec 4.2 assumption: same mean at both rates.
  EXPECT_NEAR(r.piat_mean_low, r.piat_mean_high,
              0.002 * r.piat_mean_low);
  EXPECT_NEAR(r.piat_mean_low, 10e-3, 1e-4);
  // And the variance order that drives everything: sigma_h^2 > sigma_l^2.
  EXPECT_GT(r.piat_var_high, r.piat_var_low);
}

TEST(Experiment, ConfidenceIntervalBracketsEstimate) {
  const auto r =
      ExperimentEngine().run(quick_spec(classify::FeatureKind::kSampleVariance));
  EXPECT_LE(r.ci.lo, r.detection_rate + 1e-12);
  EXPECT_GE(r.ci.hi, r.detection_rate - 1e-12);
  EXPECT_GT(r.ci.hi - r.ci.lo, 0.0);
}

TEST(Experiment, PerfectDetectionLiesInsideItsInterval) {
  // At p̂ = 1 the Wilson upper end is exactly 1. Unsnapped, the sqrt
  // rounding lands it a hair below 1 at these 16 test windows.
  auto spec = quick_spec(classify::FeatureKind::kSampleVariance, 4000);
  spec.plan.train_windows = 10;
  spec.plan.test_windows = 8;
  const auto r = ExperimentEngine().run(spec);
  ASSERT_EQ(r.detection_rate, 1.0);
  EXPECT_LE(r.ci.lo, r.detection_rate);
  EXPECT_LE(r.detection_rate, r.ci.hi);
}

TEST(Experiment, DeterministicForSameSeed) {
  const auto a =
      ExperimentEngine().run(quick_spec(classify::FeatureKind::kSampleEntropy));
  const auto b =
      ExperimentEngine().run(quick_spec(classify::FeatureKind::kSampleEntropy));
  EXPECT_DOUBLE_EQ(a.detection_rate, b.detection_rate);
  EXPECT_DOUBLE_EQ(a.r_hat, b.r_hat);
}

TEST(Experiment, SeedChangesResultsSlightly) {
  auto spec_a = quick_spec(classify::FeatureKind::kSampleVariance);
  auto spec_b = spec_a;
  spec_b.seed = 2;
  const auto a = ExperimentEngine().run(spec_a);
  const auto b = ExperimentEngine().run(spec_b);
  EXPECT_NE(a.r_hat, b.r_hat);           // different noise realization
  EXPECT_NEAR(a.detection_rate, b.detection_rate, 0.15);  // same physics
}

TEST(Experiment, SweepPreservesOrderAndMatchesSingleRuns) {
  std::vector<ExperimentSpec> specs = {
      quick_spec(classify::FeatureKind::kSampleMean),
      quick_spec(classify::FeatureKind::kSampleVariance),
  };
  const auto sweep = SweepRunner().run(specs).results;
  ASSERT_EQ(sweep.size(), 2u);
  EXPECT_DOUBLE_EQ(sweep[0].detection_rate,
                   ExperimentEngine().run(specs[0]).detection_rate);
  EXPECT_DOUBLE_EQ(sweep[1].detection_rate,
                   ExperimentEngine().run(specs[1]).detection_rate);
}

TEST(Experiment, MultiRateScenarioProducesBiggerConfusionMatrix) {
  ExperimentSpec spec;
  spec.scenario = lab_multirate(make_cit(), 3);
  spec.plan.adversary.feature = classify::FeatureKind::kSampleVariance;
  spec.plan.adversary.window_size = 400;
  spec.plan.train_windows = 40;
  spec.plan.test_windows = 40;
  const auto r = ExperimentEngine().run(spec);
  EXPECT_EQ(r.confusion.num_classes(), 3u);
  EXPECT_GT(r.detection_rate, 1.0 / 3.0);  // above 3-way chance
  EXPECT_FALSE(r.predicted.has_value() && r.confusion.num_classes() != 2);
}

TEST(Experiment, GenerateClassStreamIsDeterministic) {
  const auto spec = quick_spec(classify::FeatureKind::kSampleVariance);
  EXPECT_EQ(ExperimentEngine().class_stream(spec, 0, 500, 1),
            ExperimentEngine().class_stream(spec, 0, 500, 1));
  EXPECT_NE(ExperimentEngine().class_stream(spec, 0, 500, 1),
            ExperimentEngine().class_stream(spec, 1, 500, 1));
}

TEST(Experiment, InvalidSpecRejected) {
  auto spec = quick_spec(classify::FeatureKind::kSampleVariance);
  spec.plan.train_windows = 1;
  EXPECT_THROW(ExperimentEngine().run(spec), linkpad::ContractViolation);
}

}  // namespace
}  // namespace linkpad::core
