// The best-response-adversary contract suite (own ctest binary, label
// `robust`):
//  * run_robust_frontier byte-identical across thread counts {1, 2, hw}
//    (diffed on the canonical hex-double JSON);
//  * successive halving agrees with the exhaustive grid on a small space;
//  * held-out seed discipline: selection seeds are disjoint from scoring
//    seeds, and the fixed-bank column reproduces run_frontier bit-for-bit
//    (tuning happened on a different stream, scoring is unbiased by it);
//  * tuned detection ≥ fixed detection on every golden point;
//  * the early_stop misuse throws the named std::invalid_argument.
#include "core/robust_frontier.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/scenarios.hpp"

namespace linkpad::core {
namespace {

/// The golden robust spec: a 3-rung budget ladder against a 2-feature ×
/// 2-window attacker grid (small enough for the exhaustive path).
RobustFrontierSpec golden_spec() {
  RobustFrontierSpec spec;
  spec.frontier.scenario = lab_zero_cross(make_cit());
  spec.frontier.policies = budget_ladder({0.0, 70.0, 100.0});
  spec.frontier.plan.adversary.window_size = 200;
  spec.frontier.plan.train_windows = 12;
  spec.frontier.plan.test_windows = 12;
  spec.frontier.seed = 20030324;
  spec.space.features = {classify::FeatureKind::kSampleMean,
                         classify::FeatureKind::kSampleVariance};
  spec.space.window_sizes = {100, 200};
  return spec;
}

TEST(RobustGolden, TunedAtLeastFixedOnEveryPoint) {
  const auto spec = golden_spec();
  const auto robust = run_robust_frontier(spec);
  ASSERT_EQ(robust.points.size(), spec.frontier.policies.size());

  for (std::size_t i = 0; i < robust.points.size(); ++i) {
    SCOPED_TRACE(robust.points[i].policy);
    // The tuned attacker keeps the fixed bank in hand: never worse.
    EXPECT_GE(robust.points[i].tuned_detection,
              robust.points[i].fixed_detection);
    EXPECT_GE(robust.points[i].tuned_gain(), 0.0);
    EXPECT_LT(robust.points[i].winner, spec.space.size());
    EXPECT_FALSE(robust.points[i].winner_label.empty());
  }
  // Someone is on the front, and front() matches the flags.
  const auto front = robust.front();
  EXPECT_FALSE(front.empty());
  for (const std::size_t i : front) {
    EXPECT_TRUE(robust.points[i].pareto_efficient);
  }
}

TEST(RobustSeeds, SelectionDisjointFromScoringAndFixedColumnMatchesFrontier) {
  const auto spec = golden_spec();
  // Seed discipline: the tuner never sees a scoring stream.
  for (std::size_t i = 0; i < spec.frontier.policies.size(); ++i) {
    EXPECT_NE(spec.selection_seed(i), spec.scoring_seed(i));
    EXPECT_EQ(spec.scoring_seed(i), derive_point_seed(spec.frontier.seed, i));
    for (std::size_t j = 0; j < spec.frontier.policies.size(); ++j) {
      EXPECT_NE(spec.selection_seed(i), spec.scoring_seed(j));
    }
  }

  // The scoring sweep IS run_frontier's evaluation with one extra detector
  // tapping the capture: the fixed-bank column must reproduce
  // run_frontier's detection rates bit-for-bit. This is the held-out-seed
  // separation proof — if tuning perturbed the scoring streams in any way,
  // these doubles would differ.
  const auto robust = run_robust_frontier(spec);
  const auto fixed = run_frontier(spec.frontier);
  ASSERT_EQ(robust.points.size(), fixed.points.size());
  for (std::size_t i = 0; i < robust.points.size(); ++i) {
    SCOPED_TRACE(robust.points[i].policy);
    EXPECT_EQ(std::memcmp(&robust.points[i].fixed_detection,
                          &fixed.points[i].detection_rate, sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(&robust.points[i].overhead_bps,
                          &fixed.points[i].overhead_bps, sizeof(double)),
              0);
    // And the acceptance inequality against run_frontier itself.
    EXPECT_GE(robust.points[i].tuned_detection, fixed.points[i].detection_rate);
  }
}

TEST(RobustDeterminism, JsonByteIdenticalAcrossThreadCounts) {
  const auto spec = golden_spec();
  const std::size_t hw =
      std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  auto run_at = [&](std::size_t threads) {
    SweepOptions options;
    options.threads = threads;
    return robust_frontier_json(run_robust_frontier(spec, sim_backend(),
                                                    options));
  };
  const std::string serial = run_at(1);
  EXPECT_EQ(serial, run_at(2));
  EXPECT_EQ(serial, run_at(hw));
  // The serialization carries hex bit patterns, not printf round-trips.
  EXPECT_NE(serial.find("\"tuned_detection\":\""), std::string::npos);
}

TEST(TuneAdversary, HalvingAgreesWithExhaustiveOnSmallSpace) {
  const Scenario scenario = lab_zero_cross(make_cit());
  AdversaryPlan plan;
  plan.train_windows = 16;
  plan.test_windows = 16;
  classify::DetectorSearchSpace space;
  space.features = {classify::FeatureKind::kSampleMean,
                    classify::FeatureKind::kSampleVariance,
                    classify::FeatureKind::kSampleEntropy};
  space.window_sizes = {50, 400};
  ASSERT_EQ(space.size(), 6u);
  const std::uint64_t seed = 41;

  TuneOptions exhaustive;
  exhaustive.exhaustive_limit = 8;  // 6 ≤ 8 → one full-budget round
  const auto grid = tune_adversary(scenario, plan, space, seed, sim_backend(),
                                   exhaustive);
  EXPECT_EQ(grid.rounds, 1u);
  EXPECT_EQ(grid.evaluations, 6u);
  ASSERT_EQ(grid.final_scores.size(), 6u);

  TuneOptions halving;
  halving.exhaustive_limit = 2;
  halving.min_windows = 4;  // 6 @4 → 3 @8 → 2 finalists @16
  const auto halved = tune_adversary(scenario, plan, space, seed,
                                     sim_backend(), halving);
  EXPECT_EQ(halved.rounds, 3u);
  EXPECT_EQ(halved.evaluations, 6u + 3u + 2u);
  EXPECT_EQ(halved.final_scores.size(), 2u);

  EXPECT_EQ(halved.winner, grid.winner);
  EXPECT_EQ(halved.winner_label, grid.winner_label);
  // Both final rounds scored the winner at the full budget on the same
  // seed: the score is the same double.
  EXPECT_EQ(std::memcmp(&halved.winner_score, &grid.winner_score,
                        sizeof(double)),
            0);
}

TEST(TuneAdversary, DeterministicAcrossThreadCountsAndTiesBreakLow) {
  const Scenario scenario = lab_zero_cross(make_cit());
  AdversaryPlan plan;
  plan.train_windows = 8;
  plan.test_windows = 8;
  classify::DetectorSearchSpace space;
  space.features = {classify::FeatureKind::kSampleVariance};
  space.window_sizes = {100, 200};
  const std::uint64_t seed = 7;

  auto tune_at = [&](std::size_t threads) {
    TuneOptions options;
    options.sweep.threads = threads;
    return tune_adversary(scenario, plan, space, seed, sim_backend(), options);
  };
  const auto serial = tune_at(1);
  const auto wide = tune_at(
      std::max<std::size_t>(std::thread::hardware_concurrency(), 1));
  EXPECT_EQ(serial.winner, wide.winner);
  ASSERT_EQ(serial.final_scores.size(), wide.final_scores.size());
  for (std::size_t i = 0; i < serial.final_scores.size(); ++i) {
    EXPECT_EQ(serial.final_scores[i].candidate,
              wide.final_scores[i].candidate);
    EXPECT_EQ(std::memcmp(&serial.final_scores[i].attack_score,
                          &wide.final_scores[i].attack_score, sizeof(double)),
              0);
  }

  // A space of identical candidates ties exactly; the winner must be the
  // lowest candidate index, not an artifact of evaluation order.
  classify::DetectorSearchSpace tied;
  tied.features = {classify::FeatureKind::kSampleVariance};
  tied.window_sizes = {100, 100};  // two byte-identical candidates
  const auto tie = tune_adversary(scenario, plan, tied, seed, sim_backend());
  EXPECT_EQ(tie.winner, 0u);
}

TEST(TuneAdversary, CpdCandidateRidesTheBank) {
  const Scenario scenario = lab_zero_cross(make_cit());
  AdversaryPlan plan;
  plan.adversary.window_size = 100;
  plan.train_windows = 8;
  plan.test_windows = 8;
  classify::DetectorSearchSpace space;
  space.features = {classify::FeatureKind::kSampleVariance};
  space.window_sizes = {100};
  space.cpd_target_fars = {0.05};
  space.cpd_base.horizon = 200;  // keep the Monte-Carlo calibration cheap
  space.cpd_base.trials = 40;
  ASSERT_EQ(space.size(), 2u);

  const auto result =
      tune_adversary(scenario, plan, space, /*seed=*/11, sim_backend());
  ASSERT_EQ(result.final_scores.size(), 2u);
  EXPECT_EQ(result.final_scores[1].label, "cusum @far=0.05");
  // CPD scores live on the attack_score scale: 0.5 (undetected) or 1.0.
  const double cpd_score = result.final_scores[1].attack_score;
  EXPECT_TRUE(cpd_score == 0.5 || cpd_score == 1.0) << cpd_score;
}

TEST(RobustMisuse, EarlyStopThrowsNamedInvalidArgument) {
  const auto spec = golden_spec();
  SweepOptions options;
  options.early_stop = [](std::size_t, const ExperimentResult&) {
    return true;
  };
  try {
    (void)run_robust_frontier(spec, sim_backend(), options);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("early_stop"), std::string::npos);
  }

  TuneOptions tune;
  tune.sweep.early_stop = options.early_stop;
  try {
    (void)tune_adversary(spec.frontier.scenario, spec.frontier.plan,
                         spec.space, 1, sim_backend(), tune);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("early_stop"), std::string::npos);
  }
}

TEST(RobustMisuse, CandidateLargerThanTheScoringCaptureIsANamedError) {
  // 3 scoring windows of 200 PIATs cannot hold two training windows of a
  // 400-PIAT candidate: a named error before any point is tuned.
  auto spec = golden_spec();
  spec.frontier.plan.train_windows = 3;
  spec.frontier.plan.test_windows = 3;
  spec.space.window_sizes = {100, 400};
  std::size_t progress_calls = 0;
  SweepOptions options;
  options.progress = [&](std::size_t, std::size_t) { ++progress_calls; };
  try {
    (void)run_robust_frontier(spec, sim_backend(), options);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("400 PIATs"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(progress_calls, 0u);
}

}  // namespace
}  // namespace linkpad::core
