// Integration tests: the complete paper pipeline — simulated testbed ->
// capture -> offline training -> runtime classification -> detection rate
// vs theory — plus the system-level security invariants that make link
// padding meaningful in the first place.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/guidelines.hpp"
#include "analysis/theory.hpp"
#include "classify/adversary.hpp"
#include "core/experiment.hpp"
#include "core/piat_model.hpp"
#include "core/scenarios.hpp"
#include "sim/testbed.hpp"
#include "util/rng.hpp"

namespace linkpad {
namespace {

TEST(FullPipeline, PerfectSecrecyInvariantOnObservableRate) {
  // Whatever the payload does, the WIRE looks identical in rate and mean
  // spacing. Only second-order timing statistics can leak.
  const auto scenario = core::lab_zero_cross(core::make_cit());
  std::vector<double> means, rates;
  for (std::size_t c = 0; c < 2; ++c) {
    util::RngFactory f(11);
    auto rng = f.make(c);
    sim::Testbed bed(scenario.config_for(c), rng);
    const auto piats = bed.collect_piats(20000);
    means.push_back(stats::mean(piats));
    const auto& gs = bed.gateway_stats();
    rates.push_back(static_cast<double>(gs.payload_out + gs.dummy_out));
  }
  EXPECT_NEAR(means[0], means[1], 3e-6);
  EXPECT_NEAR(rates[0], rates[1], rates[0] * 0.01);
}

TEST(FullPipeline, CitFailsVitSurvivesEndToEnd) {
  // The paper's conclusion in one test, at n = 700.
  auto run = [](std::shared_ptr<const sim::TimerPolicy> policy) {
    core::ExperimentSpec spec;
    spec.scenario = core::lab_zero_cross(std::move(policy));
    spec.plan.adversary.feature = classify::FeatureKind::kSampleEntropy;
    spec.plan.adversary.window_size = 700;
    spec.plan.train_windows = 60;
    spec.plan.test_windows = 60;
    spec.seed = 3;
    return core::ExperimentEngine().run(spec).detection_rate;
  };
  const double v_cit = run(core::make_cit());
  const double v_vit = run(core::make_vit(200e-6));
  EXPECT_GT(v_cit, 0.85);
  EXPECT_LT(v_vit, 0.62);
}

TEST(FullPipeline, TheoryPredictsExperimentAcrossSampleSizes) {
  // Fig 4(b)'s claim: the closed forms track the measured rates.
  for (std::size_t n : {300u, 900u}) {
    core::ExperimentSpec spec;
    spec.scenario = core::lab_zero_cross(core::make_cit());
    spec.plan.adversary.feature = classify::FeatureKind::kSampleVariance;
    spec.plan.adversary.window_size = n;
    spec.plan.train_windows = 70;
    spec.plan.test_windows = 70;
    spec.seed = 5;
    const auto r = core::ExperimentEngine().run(spec);
    ASSERT_TRUE(r.predicted.has_value());
    EXPECT_NEAR(r.detection_rate, *r.predicted, 0.12) << "n = " << n;
  }
}

TEST(FullPipeline, DesignGuidelineSurvivesEmpiricalAttack) {
  // Close the loop: measure the system, run the design procedure, deploy
  // the recommended sigma_T, attack again — detection must be near the
  // designed bound.
  const auto cit = core::lab_zero_cross(core::make_cit());
  const auto vc = core::predict_components(cit.config_for(0), cit.config_for(1));

  analysis::DesignInputs in;
  in.sigma2_gw_low = vc.sigma2_gw_low;
  in.sigma2_gw_high = vc.sigma2_gw_high;
  in.sigma2_net = vc.sigma2_net;
  in.n_max = 800.0;
  in.v_max = 0.56;
  const auto rec = analysis::design_padding_system(in);
  ASSERT_GT(rec.sigma_timer, 0.0);

  core::ExperimentSpec spec;
  spec.scenario = core::lab_zero_cross(core::make_vit(rec.sigma_timer));
  spec.plan.adversary.feature = classify::FeatureKind::kSampleVariance;
  spec.plan.adversary.window_size = 800;
  spec.plan.train_windows = 60;
  spec.plan.test_windows = 60;
  spec.seed = 7;
  const auto result = core::ExperimentEngine().run(spec);
  EXPECT_LT(result.detection_rate, in.v_max + 0.08);
}

TEST(FullPipeline, RemoteTapWeakensTheAdversary) {
  // Fig 6 / Fig 8 mechanism: the same attack through a congested path
  // yields a lower detection rate than at the gateway's doorstep.
  auto run = [](core::Scenario scenario) {
    core::ExperimentSpec spec;
    spec.scenario = std::move(scenario);
    spec.plan.adversary.feature = classify::FeatureKind::kSampleEntropy;
    spec.plan.adversary.window_size = 700;
    spec.plan.train_windows = 50;
    spec.plan.test_windows = 50;
    spec.seed = 9;
    return core::ExperimentEngine().run(spec).detection_rate;
  };
  const double at_gateway = run(core::lab_zero_cross(core::make_cit()));
  const double behind_congestion =
      run(core::lab_cross_traffic(core::make_cit(), 0.45));
  EXPECT_GT(at_gateway, behind_congestion);
}

TEST(FullPipeline, PayloadProcessShapeDoesNotChangeTheStory) {
  // Theorems only depend on arrival counts per interval; swapping CBR for
  // Poisson payload must preserve the qualitative result.
  for (auto kind : {sim::PayloadKind::kCbr, sim::PayloadKind::kPoisson}) {
    core::ExperimentSpec spec;
    spec.scenario = core::lab_zero_cross(core::make_cit());
    spec.scenario.base.payload_kind = kind;
    spec.plan.adversary.feature = classify::FeatureKind::kSampleVariance;
    spec.plan.adversary.window_size = 700;
    spec.plan.train_windows = 50;
    spec.plan.test_windows = 50;
    spec.seed = 13;
    EXPECT_GT(core::ExperimentEngine().run(spec).detection_rate, 0.8);
  }
}

TEST(FullPipeline, QosAccountingMatchesPaddingTheory) {
  // NetCamo-style QoS check: payload delay through GW1 stays bounded by
  // one timer interval at the paper's load levels.
  const auto scenario = core::lab_zero_cross(core::make_cit());
  util::RngFactory f(17);
  auto rng = f.make(0);
  sim::Testbed bed(scenario.config_for(1), rng);  // 40 pps (heaviest)
  bed.collect_piats(20000);
  const auto& delay = bed.gateway_stats().queueing_delay;
  ASSERT_GT(delay.count(), 100u);
  EXPECT_LT(delay.mean(), 10e-3);
  EXPECT_LT(delay.max(), 15e-3);
  EXPECT_EQ(bed.gateway_stats().dropped, 0u);
}

}  // namespace
}  // namespace linkpad
