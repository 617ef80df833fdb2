// Streaming change-point detector contract (DESIGN.md §2.12):
//
//  * a CPD detector's outcome is independent of test batch boundaries, and
//    cpd_outcome_at(prefix) after one ragged pass equals a fresh,
//    identically-trained bank fed only that prefix;
//  * checkpoint() forks the full mid-stream CPD state — fork and original
//    evolve independently, and a resumed fork matches an uninterrupted
//    detector exactly;
//  * Monte-Carlo ARL0 calibration is deterministic in its seed and meets
//    the false-alarm target on FRESH null replays (Wilson interval check);
//  * the experiment engine / population engine / shard pipeline thread the
//    time-to-detection outcomes end to end, bit-identically at any thread
//    count and across the shard-file round-trip.
#include "classify/cpd.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "classify/detector_bank.hpp"
#include "core/experiment.hpp"
#include "core/population.hpp"
#include "core/scenarios.hpp"
#include "core/shard_io.hpp"
#include "stats/concentration.hpp"
#include "stats/distributions.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace linkpad::classify {
namespace {

constexpr std::size_t kTrainPerClass = 1500;
constexpr std::size_t kTestPerClass = 2500;

std::vector<double> synthetic_stream(double mean, double sigma,
                                     std::uint64_t seed, std::size_t count) {
  util::Rng rng(seed);
  const stats::Normal dist(mean, sigma);
  std::vector<double> out(count);
  for (auto& x : out) x = dist.sample(rng);
  return out;
}

struct Capture {
  std::vector<std::vector<double>> train;  // per class
  std::vector<std::vector<double>> test;
};

/// Two overlapping-but-distinct Gaussian PIAT populations: class 1 is both
/// shifted and wider, so the CUSUM and the adaptive-EWMA each have
/// something to key on.
const Capture& capture() {
  static const Capture c = [] {
    Capture out;
    out.train = {synthetic_stream(1.00, 0.10, 1, kTrainPerClass),
                 synthetic_stream(1.06, 0.14, 2, kTrainPerClass)};
    out.test = {synthetic_stream(1.00, 0.10, 3, kTestPerClass),
                synthetic_stream(1.06, 0.14, 4, kTestPerClass)};
    return out;
  }();
  return c;
}

std::vector<DetectorSpec> cpd_specs(double target_far = 0.0) {
  std::vector<DetectorSpec> specs;
  for (const auto kind : {CpdKind::kCusum, CpdKind::kAdaptiveEwma}) {
    DetectorSpec spec;
    spec.cpd.emplace();
    spec.cpd->kind = kind;
    if (target_far > 0.0) {
      spec.cpd->target_far = target_far;
      spec.cpd->horizon = 500;
      spec.cpd->trials = 80;
    } else {
      spec.cpd->threshold = 5.0;
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

DetectorBank trained_bank(double target_far = 0.0) {
  DetectorBank bank(cpd_specs(target_far), 2);
  for (std::size_t c = 0; c < 2; ++c) {
    bank.consume_training(c, capture().train[c]);
  }
  bank.train();
  return bank;
}

void expect_same_outcome(const CpdOutcome& a, const CpdOutcome& b,
                         const std::string& label) {
  EXPECT_EQ(a.kind, b.kind) << label;
  EXPECT_EQ(a.threshold, b.threshold) << label;  // bitwise
  EXPECT_EQ(a.ttd.detected, b.ttd.detected) << label;
  EXPECT_EQ(a.ttd.n_at_detection, b.ttd.n_at_detection) << label;
  EXPECT_EQ(a.ttd.false_alarms, b.ttd.false_alarms) << label;
}

void feed_test_prefix(DetectorBank& bank, std::size_t prefix) {
  for (std::size_t c = 0; c < 2; ++c) {
    bank.consume_test(
        c, std::span<const double>(capture().test[c]).first(prefix));
  }
}

// ------------------------------------------------------- batch boundaries

TEST(CpdBank, OutcomeIndependentOfBatchBoundaries) {
  DetectorBank whole = trained_bank();
  feed_test_prefix(whole, kTestPerClass);

  DetectorBank ragged = trained_bank();
  for (std::size_t c = 0; c < 2; ++c) {
    std::span<const double> stream(capture().test[c]);
    for (const std::size_t piece : {7ul, 1ul, 24ul, 999ul}) {
      ragged.consume_test(c, stream.first(piece));
      stream = stream.subspan(piece);
    }
    ragged.consume_test(c, stream);
  }

  for (std::size_t d = 0; d < whole.size(); ++d) {
    expect_same_outcome(ragged.detector(d).cpd_outcome(),
                        whole.detector(d).cpd_outcome(),
                        whole.detector(d).name());
  }
}

// ------------------------------------------------------------ checkpoints

TEST(CpdBank, EvaluateAtMatchesFreshBankFedPrefix) {
  const std::vector<std::size_t> prefixes = {1, 100, 101, kTestPerClass};
  DetectorBank bank = trained_bank();
  bank.arm_checkpoints(prefixes);
  // Ragged batches across the checkpoint boundaries.
  for (std::size_t c = 0; c < 2; ++c) {
    std::span<const double> stream(capture().test[c]);
    for (const std::size_t piece : {99ul, 1ul, 3ul, 1500ul}) {
      bank.consume_test(c, stream.first(piece));
      stream = stream.subspan(piece);
    }
    bank.consume_test(c, stream);
  }

  for (const std::size_t prefix : prefixes) {
    DetectorBank reference = trained_bank();
    feed_test_prefix(reference, prefix);
    for (std::size_t d = 0; d < bank.size(); ++d) {
      expect_same_outcome(bank.detector(d).cpd_outcome_at(prefix),
                          reference.detector(d).cpd_outcome(),
                          bank.detector(d).name() + " prefix " +
                              std::to_string(prefix));
    }
  }
}

TEST(CpdBank, ForkedBankResumesAndDivergesIndependently) {
  DetectorBank original = trained_bank();
  feed_test_prefix(original, 137);  // mid-stream state

  DetectorBank fork = original.checkpoint();
  for (std::size_t c = 0; c < 2; ++c) {
    const std::span<const double> rest =
        std::span<const double>(capture().test[c]).subspan(137);
    original.consume_test(c, rest);
    fork.consume_test(c, rest);
  }
  for (std::size_t d = 0; d < original.size(); ++d) {
    expect_same_outcome(fork.detector(d).cpd_outcome(),
                        original.detector(d).cpd_outcome(), "resumed fork");
  }

  // An uninterrupted bank fed the identical stream agrees too.
  DetectorBank uninterrupted = trained_bank();
  feed_test_prefix(uninterrupted, kTestPerClass);
  for (std::size_t d = 0; d < original.size(); ++d) {
    expect_same_outcome(original.detector(d).cpd_outcome(),
                        uninterrupted.detector(d).cpd_outcome(),
                        "uninterrupted");
  }

  // Diverging continuations do not leak into each other: feed the fork's
  // class-0 stream the (shifted) class-1 capture and its CUSUM state must
  // part ways with the original's.
  DetectorBank diverged = uninterrupted.checkpoint();
  diverged.consume_test(0, capture().test[1]);
  EXPECT_NE(diverged.detector(0).cpd_outcome().ttd.false_alarms +
                diverged.detector(0).cpd_outcome().ttd.n_at_detection,
            uninterrupted.detector(0).cpd_outcome().ttd.false_alarms +
                uninterrupted.detector(0).cpd_outcome().ttd.n_at_detection);
}

// ------------------------------------------------------------ calibration

TEST(CpdCalibration, DeterministicInSeed) {
  CpdConfig config;
  config.kind = CpdKind::kCusum;
  config.target_far = 0.05;
  config.horizon = 1000;
  config.trials = 200;
  config.calibration_seed = 20030324;
  const auto a = CpdModel::train(config, capture().train);
  const auto b = CpdModel::train(config, capture().train);
  EXPECT_EQ(a.threshold(), b.threshold());  // bitwise

  config.calibration_seed = 20030325;
  const auto c = CpdModel::train(config, capture().train);
  EXPECT_NE(a.threshold(), c.threshold());
}

TEST(CpdCalibration, MeetsFalseAlarmTargetOnFreshNullReplays) {
  // Calibrate h for a 5% within-horizon false-alarm probability, then
  // measure the realized rate on FRESH bootstrap null replays (disjoint
  // RNG substreams). The Wilson 99% interval around the fresh estimate
  // must contain the target. Fully seeded: this test is deterministic.
  constexpr double kTargetFar = 0.05;
  constexpr std::size_t kHorizon = 1000;
  CpdConfig config;
  config.kind = CpdKind::kCusum;
  config.target_far = kTargetFar;
  config.horizon = kHorizon;
  config.trials = 600;
  config.calibration_seed = 20030324;
  const auto model = CpdModel::train(config, capture().train);
  ASSERT_GT(model.threshold(), 0.0);

  constexpr std::size_t kFreshTrials = 600;
  const util::RngFactory factory(0xf4e50524c0ffee01ULL);
  std::size_t alarms = 0;
  std::vector<double> stream(kHorizon);
  for (std::size_t t = 0; t < kFreshTrials; ++t) {
    auto rng = factory.make(t);
    bool fired = false;
    for (const std::size_t side :
         {CpdModel::kSideHigh, CpdModel::kSideLow}) {
      const auto& pool =
          capture().train[side == CpdModel::kSideHigh ? 0 : 1];
      const double size = static_cast<double>(pool.size());
      for (auto& x : stream) {
        x = pool[static_cast<std::size_t>(rng.uniform01() * size)];
      }
      if (model.max_statistic(side, stream) > model.threshold()) fired = true;
    }
    if (fired) ++alarms;
  }

  const auto ci = stats::wilson_interval(alarms, kFreshTrials, 0.99);
  EXPECT_LE(ci.lo, kTargetFar)
      << "fresh false-alarm rate " << ci.point << " too high";
  EXPECT_GE(ci.hi, kTargetFar)
      << "fresh false-alarm rate " << ci.point << " too low";
}

TEST(CpdModel, EqualTrainingMeansNeverFireEwma) {
  // A perfectly equalizing defense: both classes train to the SAME pool.
  // The adaptive-EWMA's presumed drift is then exactly zero and the
  // detector must honestly never fire, no matter the stream.
  const std::vector<std::vector<double>> pools = {capture().train[0],
                                                  capture().train[0]};
  CpdConfig config;
  config.kind = CpdKind::kAdaptiveEwma;
  config.threshold = 1e-9;
  const auto model = CpdModel::train(config, pools);
  auto state = model.initial_state();
  for (const double x : capture().test[1]) model.update(state, x);
  EXPECT_EQ(state.high.alarms, 0u);
  EXPECT_EQ(state.low.alarms, 0u);
  EXPECT_FALSE(model.time_to_detection(std::vector<CpdClassState>{
      state, state}).detected);
}

TEST(CpdModel, DetectsShiftedStreamQuickly) {
  CpdConfig config;
  config.kind = CpdKind::kCusum;
  config.threshold = 5.0;
  const auto model = CpdModel::train(config, capture().train);
  std::vector<CpdClassState> states(2, model.initial_state());
  for (std::size_t c = 0; c < 2; ++c) {
    for (const double x : capture().test[c]) model.update(states[c], x);
  }
  const auto ttd = model.time_to_detection(states);
  EXPECT_TRUE(ttd.detected);
  EXPECT_GT(ttd.n_at_detection, 0u);
  EXPECT_LT(ttd.n_at_detection, kTestPerClass);
}

// ------------------------------------------------------------- engine wiring

core::ExperimentSpec engine_spec() {
  core::ExperimentSpec spec;
  spec.scenario = core::lab_zero_cross(core::make_cit());
  spec.plan.adversary.feature = FeatureKind::kSampleVariance;
  spec.plan.adversary.window_size = 50;
  spec.plan.train_windows = 20;
  spec.plan.test_windows = 20;
  for (const auto kind : {CpdKind::kCusum, CpdKind::kAdaptiveEwma}) {
    CpdConfig config;
    config.kind = kind;
    config.target_far = 0.05;
    config.horizon = 400;
    config.trials = 40;
    spec.plan.cpd_detectors.push_back(config);
  }
  return spec;
}

TEST(CpdEngine, ExperimentResultCarriesOutcomes) {
  const auto result = core::ExperimentEngine().run(engine_spec());
  ASSERT_EQ(result.cpd.size(), 2u);
  EXPECT_EQ(result.cpd[0].kind, CpdKind::kCusum);
  EXPECT_EQ(result.cpd[1].kind, CpdKind::kAdaptiveEwma);
  EXPECT_GT(result.cpd[0].threshold, 0.0);
  ASSERT_FALSE(result.by_sample_size.empty());
  for (const auto& point : result.by_sample_size) {
    ASSERT_EQ(point.cpd.size(), 2u);
  }
  // The top-level outcomes mirror the largest sample-size point.
  expect_same_outcome(result.cpd[0], result.by_sample_size.back().cpd[0],
                      "top mirror");

  // Re-running the identical spec is bit-identical (calibration included).
  const auto again = core::ExperimentEngine().run(engine_spec());
  for (std::size_t j = 0; j < result.cpd.size(); ++j) {
    expect_same_outcome(again.cpd[j], result.cpd[j], "re-run");
  }
}

core::PopulationSpec population_spec() {
  core::PopulationSpec spec;
  spec.experiment = engine_spec();
  spec.flows = 6;
  spec.keep_per_flow = false;
  return spec;
}

TEST(CpdPopulation, AggregatesPresentAndBitIdenticalAcrossThreadCounts) {
  core::SweepOptions reference_options;
  reference_options.threads = 1;  // the inline reference schedule
  const auto reference =
      core::PopulationEngine(core::sim_backend(), reference_options)
          .run(population_spec());
  ASSERT_EQ(reference.cpd.size(), 2u);
  EXPECT_EQ(reference.cpd[0].kind, CpdKind::kCusum);
  EXPECT_GT(reference.cpd[0].mean_threshold, 0.0);
  EXPECT_GE(reference.cpd[0].detected_fraction, 0.0);
  EXPECT_LE(reference.cpd[0].detected_fraction, 1.0);
  if (reference.cpd[0].detected_fraction > 0.0) {
    EXPECT_GT(reference.cpd[0].min_n_at_detection, 0u);
    ASSERT_TRUE(reference.cpd[0].min_time_to_detection.has_value());
    EXPECT_GT(*reference.cpd[0].min_time_to_detection, 0.0);
  }
  const std::string reference_json = core::population_result_json(reference);
  EXPECT_NE(reference_json.find("\"cpd\""), std::string::npos);

  const std::size_t hw = std::max(2u, std::thread::hardware_concurrency());
  for (const std::size_t threads : {std::size_t{2}, std::size_t{hw}}) {
    core::SweepOptions options;
    options.threads = threads;
    const auto run = core::PopulationEngine(core::sim_backend(), options)
                         .run(population_spec());
    EXPECT_EQ(core::population_result_json(run), reference_json)
        << "threads = " << threads;
  }
}

TEST(CpdShard, RoundTripAndMergeMatchSingleProcess) {
  const auto spec = population_spec();
  const auto reference = core::run_population(spec);

  std::vector<core::PopulationShard> shards;
  for (std::size_t index = 0; index < 2; ++index) {
    core::SweepOptions options;
    options.shard_index = index;
    options.shard_count = 2;
    core::PopulationShard shard =
        core::run_population_shard(spec, core::sim_backend(), options);
    // Serialize → parse: the chunk CPD rows survive bit for bit.
    const core::PopulationShard parsed =
        core::parse_shard(core::serialize_shard(shard));
    ASSERT_EQ(parsed.chunks.size(), shard.chunks.size());
    for (std::size_t c = 0; c < shard.chunks.size(); ++c) {
      ASSERT_EQ(parsed.chunks[c].cpd_kinds, shard.chunks[c].cpd_kinds);
      ASSERT_EQ(parsed.chunks[c].cpd.size(), shard.chunks[c].cpd.size());
      for (std::size_t j = 0; j < shard.chunks[c].cpd.size(); ++j) {
        ASSERT_EQ(parsed.chunks[c].cpd[j].size(),
                  shard.chunks[c].cpd[j].size());
        for (std::size_t f = 0; f < shard.chunks[c].cpd[j].size(); ++f) {
          EXPECT_EQ(parsed.chunks[c].cpd[j][f].detected,
                    shard.chunks[c].cpd[j][f].detected);
          EXPECT_EQ(parsed.chunks[c].cpd[j][f].n_at_detection,
                    shard.chunks[c].cpd[j][f].n_at_detection);
          EXPECT_EQ(parsed.chunks[c].cpd[j][f].false_alarms,
                    shard.chunks[c].cpd[j][f].false_alarms);
          EXPECT_EQ(parsed.chunks[c].cpd[j][f].threshold,
                    shard.chunks[c].cpd[j][f].threshold);  // bitwise
        }
      }
    }
    shards.push_back(std::move(shard));
  }

  const auto merged = core::merge_shards(std::move(shards));
  EXPECT_EQ(core::population_result_json(merged),
            core::population_result_json(reference));
}

// --------------------------------------------------------------- validation

TEST(CpdConfigValidation, RejectsBadParameters) {
  // CPD + EDF on one detector is rejected.
  DetectorSpec bad;
  bad.cpd.emplace();
  bad.edf = EdfDistance::kKolmogorovSmirnov;
  EXPECT_THROW((DetectorBank({bad}, 2)), linkpad::ContractViolation);

  // CPD needs exactly two classes.
  DetectorSpec cpd_spec;
  cpd_spec.cpd.emplace();
  EXPECT_THROW((DetectorBank({cpd_spec}, 3)), linkpad::ContractViolation);

  // Bad EWMA smoothing / FAR targets are rejected at train().
  CpdConfig config;
  config.ewma_beta = 1.5;
  EXPECT_THROW((void)CpdModel::train(config, capture().train),
               linkpad::ContractViolation);
  config = {};
  config.target_far = 1.0;
  EXPECT_THROW((void)CpdModel::train(config, capture().train),
               linkpad::ContractViolation);
  config = {};
  config.threshold = 0.0;
  EXPECT_THROW((void)CpdModel::train(config, capture().train),
               linkpad::ContractViolation);
}

}  // namespace
}  // namespace linkpad::classify
