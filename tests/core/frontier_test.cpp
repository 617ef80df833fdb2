// The defense-frontier contract suite (own ctest binary, label `frontier`):
//  * the golden budget-ladder table at the default seed — detection rate
//    monotone non-increasing as the overhead budget grows, endpoints pinned;
//  * bit-identity across thread counts {1, 2, hw} for EVERY payload-
//    reactive TimerPolicy (the population/sweep determinism wall extended
//    to the new policies);
//  * engine overhead accounting cross-checked against the analytic wire
//    rate and the budgeted cost model.
#include "core/frontier.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/overhead.hpp"
#include "core/scenarios.hpp"
#include "util/check.hpp"

namespace linkpad::core {
namespace {

/// Bitwise equality of the fields the frontier reads off a result,
/// including the overhead accounting.
void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(std::memcmp(&a.detection_rate, &b.detection_rate, sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(&a.r_hat, &b.r_hat, sizeof(double)), 0);
  ASSERT_EQ(a.per_feature.size(), b.per_feature.size());
  for (std::size_t f = 0; f < a.per_feature.size(); ++f) {
    EXPECT_EQ(std::memcmp(&a.per_feature[f].detection_rate,
                          &b.per_feature[f].detection_rate, sizeof(double)),
              0);
  }
  ASSERT_EQ(a.overhead_per_class.size(), b.overhead_per_class.size());
  for (std::size_t c = 0; c < a.overhead_per_class.size(); ++c) {
    const StreamOverhead& oa = a.overhead_per_class[c];
    const StreamOverhead& ob = b.overhead_per_class[c];
    EXPECT_EQ(oa.payload_packets, ob.payload_packets);
    EXPECT_EQ(oa.dummy_packets, ob.dummy_packets);
    EXPECT_EQ(oa.suppressed_fires, ob.suppressed_fires);
    EXPECT_EQ(std::memcmp(&oa.wire_bps, &ob.wire_bps, sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&oa.padding_bps, &ob.padding_bps, sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(&oa.delay_p95, &ob.delay_p95, sizeof(double)), 0);
  }
}

FrontierSpec golden_ladder_spec() {
  FrontierSpec spec;
  spec.scenario = lab_zero_cross(make_cit());
  // Peak payload 40 pps vs the 100 pps timer: only the last rung reaches
  // full coverage.
  spec.policies = budget_ladder({0.0, 40.0, 70.0, 85.0, 100.0});
  spec.plan.adversary.window_size = 200;
  spec.plan.train_windows = 12;
  spec.plan.test_windows = 12;
  spec.seed = 20030324;  // the default seed the golden values are pinned at
  return spec;
}

TEST(FrontierGolden, BudgetLadderMonotoneAtDefaultSeed) {
  const auto frontier = run_frontier(golden_ladder_spec());
  ASSERT_EQ(frontier.points.size(), 5u);

  // The acceptance contract: detection never rises as the budget grows.
  EXPECT_TRUE(detection_monotone_nonincreasing(frontier.points));

  // Partial budgets leave the wire rate itself readable: certainty.
  EXPECT_NEAR(frontier.points[0].detection_rate, 1.0, 0.015);
  EXPECT_NEAR(frontier.points[1].detection_rate, 1.0, 0.015);
  EXPECT_NEAR(frontier.points[2].detection_rate, 1.0, 0.015);
  // Full coverage shrinks the leak to the paper's CIT timing channel —
  // clearly below the partial-budget certainty, clearly above coin-flip.
  EXPECT_LT(frontier.points[4].detection_rate,
            frontier.points[0].detection_rate - 0.05);
  EXPECT_GT(frontier.points[4].detection_rate, 0.6);

  // Overhead strictly grows along the ladder until the full-padding cap.
  for (std::size_t i = 1; i < frontier.points.size(); ++i) {
    EXPECT_GE(frontier.points[i].overhead_bps,
              frontier.points[i - 1].overhead_bps - 1.0);
  }
  // Budget 0 (burst 5): essentially no padding bandwidth.
  EXPECT_LT(frontier.points[0].overhead_bps, 1e3);
  // Full padding: dummy bandwidth ≈ (1/τ − mean payload rate)·wire bytes.
  const double full = padded_wire_rate_bps(golden_ladder_spec().scenario);
  EXPECT_NEAR(frontier.points[4].wire_bps, full, 0.02 * full);

  // The endpoints are Pareto-efficient by construction: nothing is cheaper
  // than rung 0, nothing detects worse than the best rung.
  EXPECT_TRUE(frontier.points.front().pareto_efficient);
  EXPECT_TRUE(frontier.points.back().pareto_efficient);
}

TEST(FrontierDeterminism, BitIdenticalAcrossThreadCountsForEveryNewPolicy) {
  FrontierSpec spec;
  spec.scenario = lab_cross_traffic(make_cit(), 0.1);
  spec.policies = {
      make_onoff(/*hangover=*/20e-3),
      make_budgeted(/*dummy_budget_per_sec=*/25.0),
      make_adaptive(/*base_gap=*/25e-3, /*gain=*/1.0, /*min_gap=*/2.5e-3),
  };
  spec.plan.adversary.window_size = 100;
  spec.plan.train_windows = 6;
  spec.plan.test_windows = 6;
  spec.seed = 77;

  const std::size_t hw =
      std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  auto run_at = [&](std::size_t threads) {
    SweepOptions options;
    options.threads = threads;
    return run_frontier(spec, sim_backend(), options);
  };
  const auto serial = run_at(1);
  const auto two = run_at(2);
  const auto wide = run_at(hw);
  ASSERT_EQ(serial.points.size(), spec.policies.size());
  for (std::size_t i = 0; i < serial.points.size(); ++i) {
    SCOPED_TRACE(serial.points[i].policy);
    expect_identical(serial.points[i].result, two.points[i].result);
    expect_identical(serial.points[i].result, wide.points[i].result);
    EXPECT_EQ(serial.points[i].pareto_efficient, two.points[i].pareto_efficient);
    EXPECT_EQ(serial.points[i].pareto_efficient,
              wide.points[i].pareto_efficient);
  }
}

TEST(FrontierOverhead, EngineAccountingTracksAnalyticRatesForCit) {
  ExperimentSpec spec;
  spec.scenario = lab_zero_cross(make_cit());
  spec.plan.adversary.feature = classify::FeatureKind::kSampleVariance;
  spec.plan.adversary.window_size = 200;
  spec.plan.train_windows = 6;
  spec.plan.test_windows = 6;
  spec.seed = 5;
  const auto result = ExperimentEngine().run(spec);

  ASSERT_EQ(result.overhead_per_class.size(), 2u);
  const double analytic = padded_wire_rate_bps(spec.scenario);
  ASSERT_TRUE(result.mean_wire_bps().has_value());
  EXPECT_NEAR(*result.mean_wire_bps(), analytic, 0.03 * analytic);
  // Dummy fraction per class complements the payload share: 1 − rate·τ.
  EXPECT_NEAR(result.overhead_per_class[0].dummy_fraction, 0.9, 0.02);
  EXPECT_NEAR(result.overhead_per_class[1].dummy_fraction, 0.6, 0.02);
  // Queueing-delay percentiles are populated, ordered and ≲ τ.
  for (const auto& oh : result.overhead_per_class) {
    EXPECT_GT(oh.delay_p50, 0.0);
    EXPECT_LE(oh.delay_p50, oh.delay_p95);
    EXPECT_LE(oh.delay_p95, oh.delay_p99);
    EXPECT_LT(oh.delay_p99, 1.5 * 10e-3);
    EXPECT_EQ(oh.suppressed_fires, 0u);
  }
}

TEST(FrontierOverhead, MeasuredBudgetedOverheadMatchesStaticModel) {
  const double budget = 30.0;
  ExperimentSpec spec;
  spec.scenario = lab_zero_cross(make_budgeted(budget));
  spec.plan.adversary.feature = classify::FeatureKind::kSampleMean;
  spec.plan.adversary.window_size = 200;
  spec.plan.train_windows = 6;
  spec.plan.test_windows = 6;
  spec.seed = 9;
  const auto result = ExperimentEngine().run(spec);

  ASSERT_EQ(result.overhead_per_class.size(), 2u);
  for (std::size_t c = 0; c < 2; ++c) {
    const double payload = spec.scenario.payload_rates[c];
    const auto model = analysis::budgeted_padding_cost(
        constants::kTau, payload, budget, constants::kWireBytes);
    const auto& oh = result.overhead_per_class[c];
    EXPECT_NEAR(oh.wire_bps, model.wire_bandwidth_bps,
                0.05 * model.wire_bandwidth_bps)
        << "class " << c;
    EXPECT_NEAR(oh.padding_bps, model.overhead_bps, 0.05 * model.overhead_bps)
        << "class " << c;
  }
}

TEST(FrontierSpecTest, PointSpecsDeriveDistinctSeedsAndCarryThePolicy) {
  const auto spec = golden_ladder_spec();
  for (std::size_t i = 0; i < spec.policies.size(); ++i) {
    const auto point = spec.point_spec(i);
    EXPECT_EQ(point.scenario.base.policy->name(), spec.policies[i]->name());
    EXPECT_EQ(point.seed, derive_point_seed(spec.seed, i));
    for (std::size_t j = i + 1; j < spec.policies.size(); ++j) {
      EXPECT_NE(point.seed, spec.point_spec(j).seed);
    }
  }
}

TEST(FrontierMonotone, ToleranceBoundsTotalRiseNotPerRungDrift) {
  auto ladder = [](std::initializer_list<double> rates) {
    std::vector<FrontierPoint> points;
    for (const double rate : rates) {
      FrontierPoint point;
      point.detection_rate = rate;
      points.push_back(point);
    }
    return points;
  };
  // Strictly non-increasing: fine at zero tolerance.
  EXPECT_TRUE(detection_monotone_nonincreasing(ladder({1.0, 1.0, 0.9, 0.6})));
  // One rung above the running minimum but inside tolerance: fine.
  EXPECT_TRUE(detection_monotone_nonincreasing(ladder({0.9, 0.88, 0.9, 0.6}),
                                               0.025));
  // Cumulative drift: each +0.02 step is inside a per-rung tolerance, but
  // the total rise over the floor is 0.08 — must FAIL.
  EXPECT_FALSE(detection_monotone_nonincreasing(
      ladder({0.80, 0.82, 0.84, 0.86, 0.88}), 0.025));
  // A genuine single jump beyond tolerance fails too.
  EXPECT_FALSE(detection_monotone_nonincreasing(ladder({0.9, 0.95}), 0.025));
}

TEST(FrontierMisuse, EarlyStopThrowsNamedInvalidArgumentBeforeSweeping) {
  // Regression: run_frontier used to trip a bare all_completed() assertion
  // deep in the run when early_stop skipped points; the misuse must be
  // named at the API boundary, before any simulation cost is paid.
  const auto spec = golden_ladder_spec();
  SweepOptions options;
  options.early_stop = [](std::size_t, const ExperimentResult&) {
    return true;
  };
  try {
    (void)run_frontier(spec, sim_backend(), options);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("early_stop"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("run_frontier"), std::string::npos);
  }
}

/// Build a FrontierResult with the given (overhead, detection) coordinates
/// and mark Pareto efficiency exactly the way run_frontier does.
FrontierResult marked_result(
    const std::vector<std::pair<double, double>>& coords) {
  FrontierResult result;
  for (const auto& [overhead, detection] : coords) {
    FrontierPoint point;
    point.overhead_bps = overhead;
    point.detection_rate = detection;
    result.points.push_back(point);
  }
  for (const std::size_t i : analysis::pareto_front(coords)) {
    result.points[i].pareto_efficient = true;
  }
  return result;
}

TEST(FrontierFront, SinglePointFrontierIsItsOwnFront) {
  const auto result = marked_result({{100.0, 0.8}});
  EXPECT_EQ(result.front(), std::vector<std::size_t>({0}));
}

TEST(FrontierFront, TiedOverheadKeepsOnlyTheLowerDetection) {
  // Equal overhead, strictly lower detection: the cheaper-to-evade point
  // dominates its rung-mate.
  const auto result = marked_result({{100.0, 0.9}, {100.0, 0.8}, {50.0, 0.95}});
  EXPECT_EQ(result.front(), std::vector<std::size_t>({1, 2}));
}

TEST(FrontierFront, ExactDuplicateOperatingPointsAreBothKept) {
  // Dominance needs a STRICT improvement in one coordinate: two policies
  // landing on the same operating point do not knock each other out, and
  // both appear in input order.
  const auto result = marked_result({{100.0, 0.8}, {100.0, 0.8}, {200.0, 0.9}});
  EXPECT_EQ(result.front(), std::vector<std::size_t>({0, 1}));
}

TEST(FrontierFront, DominatedTieOnOneCoordinateIsDropped) {
  // (100, 0.8) vs (100, 0.8) vs (80, 0.8): the cheaper point dominates
  // both duplicates (overhead strictly better, detection tied).
  const auto result = marked_result({{100.0, 0.8}, {100.0, 0.8}, {80.0, 0.8}});
  EXPECT_EQ(result.front(), std::vector<std::size_t>({2}));
}

TEST(SweepGridPolicyAxis, PoliciesReplaceSigmaAxisPointForPoint) {
  SweepGrid grid;
  grid.environment = SweepGrid::Environment::kLabCrossTraffic;
  grid.policies = {make_cit(), make_budgeted(25.0), make_onoff(20e-3)};
  grid.utilizations = {0.1, 0.3};
  grid.plan.set_features({classify::FeatureKind::kSampleVariance});
  EXPECT_EQ(grid.size(), 3u * 2u);
  const auto specs = grid.expand();
  ASSERT_EQ(specs.size(), 6u);
  // Row-major: policy outermost; every spec carries its prototype.
  for (std::size_t p = 0; p < 3; ++p) {
    for (std::size_t u = 0; u < 2; ++u) {
      EXPECT_EQ(specs[p * 2 + u].scenario.base.policy->name(),
                grid.policies[p]->name());
    }
  }
  // Seeds all distinct.
  for (std::size_t i = 0; i < specs.size(); ++i) {
    for (std::size_t j = i + 1; j < specs.size(); ++j) {
      EXPECT_NE(specs[i].seed, specs[j].seed);
    }
  }
}

}  // namespace
}  // namespace linkpad::core
