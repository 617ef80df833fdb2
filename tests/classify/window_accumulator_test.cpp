// Streaming-vs-batch feature equivalence at the window level: for every
// FeatureKind, a WindowAccumulator fed in spans of any size (one sample, or
// batches crossing window boundaries) must reproduce the batch
// FeatureExtractor — bit-identically for mean/variance/entropy and the
// exact-quantile MAD/IQR, and within the documented P² tolerance for the
// sketch-based MAD/IQR.
#include "classify/window_accumulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "stats/distributions.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace linkpad::classify {
namespace {

constexpr double kBinWidth = 3e-6;

std::vector<double> piat_like_stream(std::size_t count, std::uint64_t seed) {
  util::Rng rng(seed);
  stats::Normal dist(10e-3, 10e-6);
  std::vector<double> xs(count);
  for (auto& x : xs) x = dist.sample(rng);
  return xs;
}

AccumulatorOptions exact_options() {
  AccumulatorOptions options;
  options.entropy_bin_width = kBinWidth;
  return options;
}

const std::vector<FeatureKind> kAllFeatures = {
    FeatureKind::kSampleMean,          FeatureKind::kSampleVariance,
    FeatureKind::kSampleEntropy,       FeatureKind::kMedianAbsDeviation,
    FeatureKind::kInterquartileRange,
};

/// Chop `stream` into windows of `n`, but DELIVER it in batches of
/// `batch` — crossing window boundaries mid-batch, exactly like the
/// engine's backend pulls. Each batch reaches the accumulator as spans
/// split only at window boundaries. Returns one feature value per complete
/// window.
std::vector<double> streamed_features(WindowAccumulator& acc,
                                      const std::vector<double>& stream,
                                      std::size_t n, std::size_t batch) {
  std::vector<double> features;
  std::span<const double> rest(stream);
  while (!rest.empty()) {
    auto pulled = rest.first(std::min(batch, rest.size()));
    rest = rest.subspan(pulled.size());
    while (!pulled.empty()) {
      const std::size_t take = std::min(n - acc.count(), pulled.size());
      acc.add(pulled.first(take));
      pulled = pulled.subspan(take);
      if (acc.count() == n) {
        features.push_back(acc.value());
        acc.reset();
      }
    }
  }
  return features;
}

TEST(WindowAccumulator, BitIdenticalToBatchExtractorAtAnyBatchSize) {
  const std::size_t n = 500;
  const auto stream = piat_like_stream(8 * n + 123, 7);  // partial tail

  for (const auto kind : kAllFeatures) {
    const auto extractor = make_feature(kind, kBinWidth);
    auto acc = make_window_accumulator(kind, exact_options());
    // Batch sizes: one sample (a one-element span per add), tiny, engine
    // default, and the whole stream at once.
    for (const std::size_t batch : {std::size_t{1}, std::size_t{64},
                                    std::size_t{8192}, stream.size()}) {
      const auto streamed = streamed_features(*acc, stream, n, batch);
      ASSERT_EQ(streamed.size(), 8u) << extractor->name();
      for (std::size_t w = 0; w < streamed.size(); ++w) {
        const std::span<const double> window(stream.data() + w * n, n);
        // Bit-identical, not just close: streaming and batch share their
        // accumulation recurrences (window_accumulator.hpp).
        EXPECT_EQ(streamed[w], extractor->extract(window))
            << extractor->name() << " window " << w << " batch " << batch;
      }
      acc->reset();
    }
  }
}

TEST(WindowAccumulator, SketchedQuantilesWithinDocumentedTolerance) {
  const std::size_t n = 2000;
  const auto stream = piat_like_stream(4 * n, 8);

  AccumulatorOptions options = exact_options();
  options.quantile_mode = QuantileMode::kP2Sketch;

  for (const auto kind :
       {FeatureKind::kMedianAbsDeviation, FeatureKind::kInterquartileRange}) {
    const auto extractor = make_feature(kind, kBinWidth);
    auto acc = make_window_accumulator(kind, options);
    const auto streamed = streamed_features(*acc, stream, n, 8192);
    ASSERT_EQ(streamed.size(), 4u);
    for (std::size_t w = 0; w < streamed.size(); ++w) {
      const std::span<const double> window(stream.data() + w * n, n);
      const double exact = extractor->extract(window);
      EXPECT_GT(streamed[w], 0.0);
      // quantile_sketch.hpp documents ~1% P² accuracy; MAD adds the
      // running-median warm-up, so allow a few percent.
      EXPECT_NEAR(streamed[w], exact, 0.10 * exact)
          << extractor->name() << " window " << w;
    }
  }
}

TEST(WindowAccumulator, SketchModeUsesConstantMemoryAccumulators) {
  AccumulatorOptions options;
  options.quantile_mode = QuantileMode::kP2Sketch;
  auto mad = make_window_accumulator(FeatureKind::kMedianAbsDeviation, options);
  auto iqr = make_window_accumulator(FeatureKind::kInterquartileRange, options);
  EXPECT_EQ(mad->name(), "MAD (P2)");
  EXPECT_EQ(iqr->name(), "IQR (P2)");
}

TEST(WindowAccumulator, ResetIsolatesConsecutiveWindows) {
  // One accumulator reused across windows (the bank's hot path) must match
  // fresh per-window extraction — no state bleed.
  const auto stream = piat_like_stream(300, 9);
  auto acc = make_window_accumulator(FeatureKind::kSampleVariance);
  const auto extractor = make_feature(FeatureKind::kSampleVariance);
  const auto features = streamed_features(*acc, stream, 100, 77);
  ASSERT_EQ(features.size(), 3u);
  for (std::size_t w = 0; w < 3; ++w) {
    EXPECT_EQ(features[w],
              extractor->extract({stream.data() + w * 100, std::size_t{100}}));
  }
}

TEST(WindowAccumulator, EntropyRequiresBinWidth) {
  EXPECT_THROW(make_window_accumulator(FeatureKind::kSampleEntropy),
               linkpad::ContractViolation);
  try {
    (void)make_window_accumulator(FeatureKind::kSampleEntropy);
    FAIL() << "defaulted bin width must not be accepted";
  } catch (const linkpad::ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("entropy_bin_width"),
              std::string::npos)
        << e.what();
  }
}

TEST(WindowAccumulator, CountTracksAddsAndReset) {
  auto acc = make_window_accumulator(FeatureKind::kSampleMean);
  EXPECT_EQ(acc->count(), 0u);
  acc->add(std::vector<double>{1.0, 2.0, 3.0});
  EXPECT_EQ(acc->count(), 3u);
  EXPECT_DOUBLE_EQ(acc->value(), 2.0);
  acc->reset();
  EXPECT_EQ(acc->count(), 0u);
}

}  // namespace
}  // namespace linkpad::classify
