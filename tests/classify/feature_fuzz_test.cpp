// Property sweep: the streaming/batch bit-identity contract of
// window_accumulator.hpp, exercised over randomized inputs instead of
// hand-picked fixtures — 200 seeded random streams per FeatureKind, with
// randomized window sizes, randomized batch chunking, and adversarial
// value patterns (constants, duplicates, mixed scales, negatives). Seeded
// generation keeps every "fuzz" case replayable from its iteration index.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "classify/feature.hpp"
#include "classify/window_accumulator.hpp"
#include "util/rng.hpp"

namespace linkpad::classify {
namespace {

constexpr std::size_t kStreams = 200;

/// Random window with adversarial shapes: smooth normal-ish PIATs, heavy
/// duplicates (quantized values), exact constants, and scale mixtures.
std::vector<double> random_window(util::Rng& rng, std::size_t size) {
  std::vector<double> window(size);
  const double pick = rng.uniform01();
  if (pick < 0.25) {
    // Quantized: many exact duplicates (entropy's natural diet).
    const double quantum = rng.uniform(1e-6, 1e-3);
    for (auto& x : window) {
      x = quantum * std::floor(rng.uniform(0.0, 32.0));
    }
  } else if (pick < 0.35) {
    // Constant stream: zero variance, single occupied entropy bin.
    const double c = rng.uniform(-5e-3, 15e-3);
    std::fill(window.begin(), window.end(), c);
  } else if (pick < 0.5) {
    // Two scales, orders of magnitude apart (cancellation stress).
    for (auto& x : window) {
      x = rng.uniform01() < 0.5 ? rng.uniform(0.0, 1e-8)
                                : rng.uniform(0.1, 10.0);
    }
  } else {
    // Jittered timer-like PIATs, occasionally negative (clock skew).
    for (auto& x : window) {
      x = 10e-3 + rng.uniform(-2e-3, 2e-3);
      if (rng.uniform01() < 0.02) x = -x;
    }
  }
  return window;
}

void expect_bitwise(double a, double b, const std::string& label) {
  if (std::isnan(a) && std::isnan(b)) return;
  EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
      << label << ": " << a << " vs " << b;
}

/// Feed `window` through a fresh accumulator in random-sized span
/// chunks (batch boundaries must be invisible) and compare bitwise with
/// the batch extractor.
void check_stream(FeatureKind kind, util::Rng& rng, std::size_t iteration) {
  const std::size_t size = 2 + static_cast<std::size_t>(
                                   rng.uniform(0.0, 398.0));
  const auto window = random_window(rng, size);

  AccumulatorOptions options;
  options.entropy_bin_width = rng.uniform(1e-7, 1e-3);
  auto accumulator = make_window_accumulator(kind, options);

  std::span<const double> rest(window);
  while (!rest.empty()) {
    const auto chunk = std::min<std::size_t>(
        rest.size(), 1 + static_cast<std::size_t>(rng.uniform(0.0, 63.0)));
    // Mix one-element spans with multi-sample spans; both must agree.
    if (rng.uniform01() < 0.3) {
      for (const double& x : rest.first(chunk)) accumulator->add({&x, 1});
    } else {
      accumulator->add(rest.first(chunk));
    }
    rest = rest.subspan(chunk);
  }
  ASSERT_EQ(accumulator->count(), window.size());

  const auto extractor = make_feature(kind, options.entropy_bin_width);
  expect_bitwise(accumulator->value(), extractor->extract(window),
                 feature_name(kind) + " stream " + std::to_string(iteration) +
                     " size " + std::to_string(size));
}

class FeatureFuzz : public ::testing::TestWithParam<FeatureKind> {};

TEST_P(FeatureFuzz, StreamingMatchesBatchOnRandomizedStreams) {
  // One deterministic generator per feature: failures name the iteration,
  // and replaying it regenerates the exact offending stream.
  util::Rng rng(0x5eedu + static_cast<std::uint64_t>(GetParam()));
  for (std::size_t i = 0; i < kStreams; ++i) {
    check_stream(GetParam(), rng, i);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, FeatureFuzz,
                         ::testing::Values(FeatureKind::kSampleMean,
                                           FeatureKind::kSampleVariance,
                                           FeatureKind::kSampleEntropy,
                                           FeatureKind::kMedianAbsDeviation,
                                           FeatureKind::kInterquartileRange),
                         [](const auto& info) {
                           std::string name = feature_name(info.param);
                           std::replace(name.begin(), name.end(), ' ', '_');
                           return name;
                         });

TEST(FeatureFuzz, SketchedQuantilesTrackExactOnRandomStreams) {
  // The P² MAD/IQR accumulators carry a documented ~1% relative tolerance
  // on smooth streams; verify it holds across random smooth windows (the
  // adversarial shapes above are exempt — the sketch's accuracy claim is
  // for smooth distributions).
  util::Rng rng(77);
  for (std::size_t i = 0; i < 40; ++i) {
    const std::size_t size = 600 + static_cast<std::size_t>(
                                       rng.uniform(0.0, 2000.0));
    std::vector<double> window(size);
    for (auto& x : window) x = 10e-3 + rng.uniform(-3e-3, 3e-3);

    for (const auto kind : {FeatureKind::kMedianAbsDeviation,
                            FeatureKind::kInterquartileRange}) {
      AccumulatorOptions options;
      options.quantile_mode = QuantileMode::kP2Sketch;
      auto sketched = make_window_accumulator(kind, options);
      sketched->add(window);
      const double exact = make_feature(kind)->extract(window);
      EXPECT_NEAR(sketched->value(), exact, 0.05 * exact)
          << feature_name(kind) << " stream " << i;
    }
  }
}

}  // namespace
}  // namespace linkpad::classify
