// Streaming per-window feature accumulators (the single-pass counterpart of
// FeatureExtractor).
//
// A WindowAccumulator consumes the PIATs of one window span by span and
// produces the window's feature value at the end — so a capture can be
// pulled from its backend in bounded batches and reduced on the fly, with
// resident memory independent of the capture length. Accumulators and
// batch extractors share their numeric recurrences:
//
//  * mean      — in-order running sum: bit-identical to stats::mean;
//  * variance  — Welford moments (stats::RunningStats), the same recurrence
//                SampleVarianceFeature runs: bit-identical;
//  * entropy   — incremental SparseHistogram at fixed Δh; the histogram is
//                order-independent, so bit-identical to stats::sample_entropy;
//  * MAD / IQR — QuantileMode::kExact buffers the window (memory O(n),
//                bounded by the window size) and evaluates the same
//                sorted-quantile code as the batch features: bit-identical.
//                QuantileMode::kP2Sketch swaps the buffer for P² quantile
//                markers — O(1) memory for arbitrarily large windows, with
//                the ~1% relative accuracy documented in quantile_sketch.hpp.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "classify/feature.hpp"
#include "stats/entropy.hpp"

namespace linkpad::classify {

/// How the streaming MAD/IQR accumulators obtain their quantiles.
enum class QuantileMode {
  kExact,     ///< buffer the window; bit-identical to the batch features
  kP2Sketch,  ///< P² markers; O(1) memory, documented ~1% tolerance
};

/// Knobs for make_window_accumulator (mirrors make_feature + QuantileMode).
struct AccumulatorOptions {
  /// Required (> 0) for kSampleEntropy.
  double entropy_bin_width = 0.0;
  stats::EntropyBias entropy_bias = stats::EntropyBias::kNone;
  QuantileMode quantile_mode = QuantileMode::kExact;
};

/// Incremental reducer from one window's PIATs to its scalar feature.
class WindowAccumulator {
 public:
  virtual ~WindowAccumulator() = default;

  /// Add the next samples of the window, in order. The result does not
  /// depend on how a stream is split into spans; one virtual dispatch per
  /// span keeps the bank's streaming path out of per-sample calls.
  virtual void add(std::span<const double> xs) = 0;

  /// Feature value of the samples added since construction / reset().
  [[nodiscard]] virtual double value() const = 0;

  /// Forget all samples; configuration (bin width, quantile) is kept.
  virtual void reset() = 0;

  /// Samples added since the last reset.
  [[nodiscard]] virtual std::size_t count() const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Deep copy of the accumulator INCLUDING partially-consumed window
  /// state — the checkpoint primitive for forked detector banks. O(state):
  /// O(1) for the moment/sketch accumulators, O(occupied bins) for entropy
  /// and O(buffered samples) for the exact dispersion accumulators.
  [[nodiscard]] virtual std::unique_ptr<WindowAccumulator> clone() const = 0;
};

/// Factory. Throws ContractViolation for kSampleEntropy without a bin width.
std::unique_ptr<WindowAccumulator> make_window_accumulator(
    FeatureKind kind, const AccumulatorOptions& options = {});

}  // namespace linkpad::classify
