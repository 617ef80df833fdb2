// Sweep determinism and the engine layer's backend seam.
//
// The contract every scaling PR builds on: a sweep's results are a pure
// function of its specs — bit-identical no matter how many threads shard
// the points, because every point derives its RNG streams from
// (seed, salt, class), never from schedule order.
#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "core/piat_source.hpp"
#include "util/check.hpp"

namespace linkpad::core {
namespace {

void expect_identical_confusion(const classify::ConfusionMatrix& a,
                                const classify::ConfusionMatrix& b) {
  ASSERT_EQ(a.num_classes(), b.num_classes());
  for (std::size_t i = 0; i < a.num_classes(); ++i) {
    for (std::size_t j = 0; j < a.num_classes(); ++j) {
      EXPECT_EQ(a.count(static_cast<ClassLabel>(i), static_cast<ClassLabel>(j)),
                b.count(static_cast<ClassLabel>(i), static_cast<ClassLabel>(j)));
    }
  }
}

/// Exact (bitwise) equality of two results, field by field, including every
/// per-feature outcome of the bank pass.
void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(std::memcmp(&a.detection_rate, &b.detection_rate, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&a.r_hat, &b.r_hat, sizeof(double)), 0);
  EXPECT_EQ(a.predicted.has_value(), b.predicted.has_value());
  if (a.predicted && b.predicted) {
    EXPECT_EQ(std::memcmp(&*a.predicted, &*b.predicted, sizeof(double)), 0);
  }
  EXPECT_EQ(std::memcmp(&a.piat_mean_low, &b.piat_mean_low, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&a.piat_mean_high, &b.piat_mean_high, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&a.piat_var_low, &b.piat_var_low, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&a.piat_var_high, &b.piat_var_high, sizeof(double)), 0);
  expect_identical_confusion(a.confusion, b.confusion);
  ASSERT_EQ(a.per_feature.size(), b.per_feature.size());
  for (std::size_t f = 0; f < a.per_feature.size(); ++f) {
    const auto& fa = a.per_feature[f];
    const auto& fb = b.per_feature[f];
    EXPECT_EQ(fa.feature, fb.feature);
    EXPECT_EQ(std::memcmp(&fa.detection_rate, &fb.detection_rate,
                          sizeof(double)), 0);
    EXPECT_EQ(fa.predicted.has_value(), fb.predicted.has_value());
    if (fa.predicted && fb.predicted) {
      EXPECT_EQ(std::memcmp(&*fa.predicted, &*fb.predicted, sizeof(double)), 0);
    }
    expect_identical_confusion(fa.confusion, fb.confusion);
  }
}

/// Small but non-trivial 8-point grid (sigma axis; every point detects two
/// features over its single simulated capture).
std::vector<ExperimentSpec> eight_point_grid() {
  SweepGrid grid;
  grid.sigma_timers = {0.0, 10e-6, 20e-6, 50e-6, 100e-6, 200e-6, 500e-6, 1e-3};
  grid.plan.set_features({classify::FeatureKind::kSampleVariance,
                          classify::FeatureKind::kSampleEntropy});
  grid.plan.adversary.window_size = 100;
  grid.plan.train_windows = 10;
  grid.plan.test_windows = 10;
  grid.seed = 99;
  return grid.expand();
}

TEST(SweepDeterminism, BitIdenticalAcrossThreadCounts) {
  const auto specs = eight_point_grid();
  ASSERT_GE(specs.size(), 8u);

  SweepOptions one_thread;
  one_thread.threads = 1;
  SweepOptions four_threads;
  four_threads.threads = 4;
  SweepOptions sixteen_threads;
  sixteen_threads.threads = 16;

  const auto serial = SweepRunner(sim_backend(), one_thread).run(specs);
  const auto par4 = SweepRunner(sim_backend(), four_threads).run(specs);
  const auto par16 = SweepRunner(sim_backend(), sixteen_threads).run(specs);

  ASSERT_TRUE(serial.all_completed());
  ASSERT_TRUE(par4.all_completed());
  ASSERT_TRUE(par16.all_completed());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_identical(serial.results[i], par4.results[i]);
    expect_identical(serial.results[i], par16.results[i]);
  }
}

TEST(SweepDeterminism, SharedPoolMatchesDedicatedPools) {
  const auto specs = eight_point_grid();
  const auto shared = SweepRunner().run(specs);  // global pool
  SweepOptions two;
  two.threads = 2;
  const auto dedicated = SweepRunner(sim_backend(), two).run(specs);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_identical(shared.results[i], dedicated.results[i]);
  }
}

TEST(SweepDeterminism, ThreadsAndGrainsAgreeBitwise) {
  // Every sweep runs one dispatch path; threads and grain only change HOW
  // points are claimed — one worker draining chunks inline in order, or
  // four workers racing for grain-aligned chunks with per-slot engines —
  // never WHAT they compute. threads = 1, grain = 1 is the reference.
  const auto specs = eight_point_grid();

  SweepOptions reference_options;
  reference_options.threads = 1;
  const auto reference =
      SweepRunner(sim_backend(), reference_options).run(specs);
  ASSERT_TRUE(reference.all_completed());
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    // Grain 3 is ragged: 8 points -> chunks of 3, 3, 2.
    for (const std::size_t grain : {std::size_t{1}, std::size_t{3}}) {
      SweepOptions options;
      options.threads = threads;
      options.grain = grain;
      const auto report = SweepRunner(sim_backend(), options).run(specs);
      ASSERT_TRUE(report.all_completed());
      for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " grain=" + std::to_string(grain) +
                     " point=" + std::to_string(i));
        expect_identical(reference.results[i], report.results[i]);
      }
    }
  }
}

TEST(SweepDeterminism, LegacyRunSweepMatchesSingleRuns) {
  // The swept points against independent single-engine runs: the runner's
  // pool and per-slot engines add nothing to what a point computes.
  const auto specs = eight_point_grid();
  const auto swept = SweepRunner().run(specs).results;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_identical(swept[i], ExperimentEngine().run(specs[i]));
  }
}

TEST(SweepRunnerTest, ProgressCoversEveryPoint) {
  const auto specs = eight_point_grid();
  // Progress now fires OUTSIDE the runner's lock (so a slow observer can't
  // stall the sweep) — callbacks may arrive concurrently and the observer
  // owns its own synchronization.
  std::mutex mutex;
  std::vector<std::size_t> done_values;
  SweepOptions options;
  options.threads = 4;
  options.progress = [&](std::size_t done, std::size_t total) {
    EXPECT_EQ(total, specs.size());
    const std::lock_guard<std::mutex> lock(mutex);
    done_values.push_back(done);
  };
  const auto report = SweepRunner(sim_backend(), options).run(specs);
  EXPECT_TRUE(report.all_completed());
  EXPECT_EQ(done_values.size(), specs.size());
  // Every count 1..N is reported exactly once, though possibly out of order.
  std::sort(done_values.begin(), done_values.end());
  for (std::size_t i = 0; i < done_values.size(); ++i) {
    EXPECT_EQ(done_values[i], i + 1);
  }
}

TEST(SweepRunnerTest, EarlyStopSkipsRemainingPoints) {
  // Serial pool: points run in order, so stopping after point 2 must leave
  // later points un-run.
  const auto specs = eight_point_grid();
  SweepOptions options;
  options.threads = 1;
  options.early_stop = [](std::size_t index, const ExperimentResult&) {
    return index >= 2;
  };
  const auto report = SweepRunner(sim_backend(), options).run(specs);
  EXPECT_FALSE(report.all_completed());
  EXPECT_LT(report.completed_count, specs.size());
  EXPECT_GE(report.completed_count, 3u);  // points 0..2 ran
  std::size_t flagged = 0;
  for (const auto c : report.completed) flagged += c;
  EXPECT_EQ(flagged, report.completed_count);
}

TEST(SweepGridTest, ExpandsRowMajorWithDistinctSeeds) {
  SweepGrid grid;
  grid.environment = SweepGrid::Environment::kLabCrossTraffic;
  grid.sigma_timers = {0.0, 50e-6};
  grid.utilizations = {0.1, 0.3, 0.5};
  grid.plan.set_features({classify::FeatureKind::kSampleVariance,
                          classify::FeatureKind::kSampleMean});
  // The feature axis rides each point's DetectorBank instead of multiplying
  // the number of points (and simulations).
  EXPECT_EQ(grid.size(), 2u * 3u);
  const auto specs = grid.expand();
  ASSERT_EQ(specs.size(), grid.size());

  // All per-point seeds distinct.
  for (std::size_t i = 0; i < specs.size(); ++i) {
    for (std::size_t j = i + 1; j < specs.size(); ++j) {
      EXPECT_NE(specs[i].seed, specs[j].seed) << i << "," << j;
    }
  }
  // Every point carries the full feature list, grid order preserved.
  for (const auto& spec : specs) {
    EXPECT_EQ(spec.plan.adversary.feature, classify::FeatureKind::kSampleVariance);
    const auto features = spec.features();
    ASSERT_EQ(features.size(), 2u);
    EXPECT_EQ(features[0], classify::FeatureKind::kSampleVariance);
    EXPECT_EQ(features[1], classify::FeatureKind::kSampleMean);
  }
  // Expansion is deterministic.
  const auto again = grid.expand();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(specs[i].seed, again[i].seed);
  }
}

TEST(SweepGridTest, TapHopsTruncateThePath) {
  SweepGrid grid;
  grid.environment = SweepGrid::Environment::kWan;
  grid.hours = {12.0};
  grid.tap_hops = {0, 4, 100};
  const auto specs = grid.expand();
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].scenario.base.hops_before_tap.size(), 0u);
  EXPECT_EQ(specs[1].scenario.base.hops_before_tap.size(), 4u);
  // Clamped to the WAN path's actual length (15 hops).
  EXPECT_EQ(specs[2].scenario.base.hops_before_tap.size(), 15u);
}

TEST(PiatSourceTest, BatchedPullsMatchOneBigPull) {
  // The backend streams contiguously: pulling 3 x 400 PIATs gives exactly
  // the same series as pulling 1200 at once.
  const auto scenario = lab_zero_cross(make_cit());
  auto batched_src = sim_backend().open(scenario, 0, /*seed=*/7, /*salt=*/1);
  std::vector<double> batched;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(batched_src->collect(400, batched), 400u);
  }

  auto oneshot_src = sim_backend().open(scenario, 0, 7, 1);
  std::vector<double> oneshot;
  EXPECT_EQ(oneshot_src->collect(1200, oneshot), 1200u);

  EXPECT_EQ(batched, oneshot);
}

TEST(PiatSourceTest, StreamsAreKeyedBySeedSaltAndClass) {
  const auto scenario = lab_zero_cross(make_cit());
  std::vector<double> base, other_seed, other_salt, other_class, same;
  sim_backend().open(scenario, 0, 7, 1)->collect(200, base);
  sim_backend().open(scenario, 0, 8, 1)->collect(200, other_seed);
  sim_backend().open(scenario, 0, 7, 2)->collect(200, other_salt);
  sim_backend().open(scenario, 1, 7, 1)->collect(200, other_class);
  sim_backend().open(scenario, 0, 7, 1)->collect(200, same);
  EXPECT_EQ(base, same);
  EXPECT_NE(base, other_seed);
  EXPECT_NE(base, other_salt);
  EXPECT_NE(base, other_class);
}

TEST(ExperimentEngineTest, BatchSizeDoesNotChangeResults) {
  ExperimentSpec spec;
  spec.scenario = lab_zero_cross(make_cit());
  spec.plan.adversary.feature = classify::FeatureKind::kSampleVariance;
  spec.plan.adversary.window_size = 100;
  spec.plan.train_windows = 10;
  spec.plan.test_windows = 10;
  spec.seed = 3;

  const auto small_batches = ExperimentEngine(sim_backend(), 256).run(spec);
  const auto big_batches = ExperimentEngine(sim_backend(), 1 << 20).run(spec);
  expect_identical(small_batches, big_batches);
}

}  // namespace
}  // namespace linkpad::core
