#include "classify/window_accumulator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "stats/descriptive.hpp"
#include "stats/histogram.hpp"
#include "stats/quantile_sketch.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace linkpad::classify {

namespace {

class MeanAccumulator final : public WindowAccumulator {
 public:
  void add(std::span<const double> xs) override {
    // In-order running sum: bit-identical to stats::mean.
    for (double x : xs) sum_ += x;
    n_ += xs.size();
  }
  [[nodiscard]] double value() const override {
    LINKPAD_EXPECTS(n_ > 0);
    return sum_ / static_cast<double>(n_);
  }
  void reset() override {
    sum_ = 0.0;
    n_ = 0;
  }
  [[nodiscard]] std::size_t count() const override { return n_; }
  [[nodiscard]] std::string name() const override { return "sample mean"; }
  [[nodiscard]] std::unique_ptr<WindowAccumulator> clone() const override {
    return std::make_unique<MeanAccumulator>(*this);
  }

 private:
  double sum_ = 0.0;
  std::size_t n_ = 0;
};

class VarianceAccumulator final : public WindowAccumulator {
 public:
  void add(std::span<const double> xs) override {
    for (double x : xs) rs_.add(x);
  }
  [[nodiscard]] double value() const override { return rs_.variance(); }
  void reset() override { rs_ = stats::RunningStats{}; }
  [[nodiscard]] std::size_t count() const override { return rs_.count(); }
  [[nodiscard]] std::string name() const override { return "sample variance"; }
  [[nodiscard]] std::unique_ptr<WindowAccumulator> clone() const override {
    return std::make_unique<VarianceAccumulator>(*this);
  }

 private:
  stats::RunningStats rs_;
};

/// Open-addressing (bin index → count) table: the entropy accumulator's hot
/// store. SparseHistogram's std::map costs a pointer-chasing insert per
/// PIAT; this flat table makes the per-sample step a hash + linear probe,
/// which matters because the prefix-replay engine streams every capture
/// through one entropy accumulator per sample-size point. Counts are
/// integers, so the content — and any entropy derived from it — is exactly
/// the histogram a SparseHistogram would hold.
class FlatBinCounter {
 public:
  FlatBinCounter() { cells_.resize(kInitialSlots); }

  void add(std::int64_t bin) {
    ++total_;
    std::size_t idx = slot_of(bin);
    for (;;) {
      Cell& cell = cells_[idx];
      if (cell.count == 0) {
        cell.bin = bin;
        cell.count = 1;
        if (++used_ * 3 >= cells_.size() * 2) grow();
        return;
      }
      if (cell.bin == bin) {
        ++cell.count;
        return;
      }
      idx = (idx + 1) & (cells_.size() - 1);
    }
  }

  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] std::size_t occupied() const { return used_; }

  /// Occupied (bin, count) cells in ascending bin order.
  [[nodiscard]] std::vector<std::pair<std::int64_t, std::uint64_t>> sorted_cells()
      const {
    std::vector<std::pair<std::int64_t, std::uint64_t>> out;
    out.reserve(used_);
    for (const Cell& cell : cells_) {
      if (cell.count != 0) out.emplace_back(cell.bin, cell.count);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  void clear() {
    // Keep the capacity: windows of one detector are all the same size, so
    // the table reaches steady state after the first window.
    std::fill(cells_.begin(), cells_.end(), Cell{});
    used_ = 0;
    total_ = 0;
  }

 private:
  struct Cell {
    std::int64_t bin = 0;
    std::uint64_t count = 0;  // 0 == empty slot
  };
  static constexpr std::size_t kInitialSlots = 64;  // power of two

  [[nodiscard]] std::size_t slot_of(std::int64_t bin) const {
    return static_cast<std::size_t>(
               util::SplitMix64::mix(static_cast<std::uint64_t>(bin))) &
           (cells_.size() - 1);
  }

  void grow() {
    std::vector<Cell> old = std::move(cells_);
    cells_.assign(old.size() * 2, Cell{});
    for (const Cell& cell : old) {
      if (cell.count == 0) continue;
      std::size_t idx = slot_of(cell.bin);
      while (cells_[idx].count != 0) idx = (idx + 1) & (cells_.size() - 1);
      cells_[idx] = cell;
    }
  }

  std::vector<Cell> cells_;
  std::size_t used_ = 0;
  std::uint64_t total_ = 0;
};

class EntropyAccumulator final : public WindowAccumulator {
 public:
  EntropyAccumulator(double bin_width, stats::EntropyBias bias)
      : bias_(bias), bin_width_(bin_width) {
    LINKPAD_EXPECTS(bin_width > 0.0);
  }

  void add(std::span<const double> xs) override {
    // Same binning as SparseHistogram::add: bin(x) = floor(x / Δh). Two-phase
    // SoA batch: the divide+floor pass has no loop-carried dependence and
    // auto-vectorizes into a stack buffer of bin indices; only the
    // hash-table inserts stay scalar. Bins are inserted in sample order, so
    // the counter content does not depend on how the stream is split.
    std::array<std::int64_t, 256> bins;
    while (!xs.empty()) {
      const std::size_t take = std::min(xs.size(), bins.size());
      for (std::size_t i = 0; i < take; ++i) {
        bins[i] = static_cast<std::int64_t>(std::floor(xs[i] / bin_width_));
      }
      for (std::size_t i = 0; i < take; ++i) counter_.add(bins[i]);
      xs = xs.subspan(take);
    }
  }
  [[nodiscard]] double value() const override {
    // Rebuild the canonical SparseHistogram (ascending-bin inserts, a few
    // dozen cells — negligible next to the window's adds) and evaluate the
    // one histogram_entropy implementation. Identical cell contents mean an
    // identical estimate bit for bit, with zero duplicated estimator logic.
    stats::SparseHistogram hist(bin_width_);
    for (const auto& [bin, count] : counter_.sorted_cells()) {
      hist.add_cell(bin, count);
    }
    return stats::histogram_entropy(hist, bias_);
  }
  void reset() override { counter_.clear(); }
  [[nodiscard]] std::size_t count() const override {
    return static_cast<std::size_t>(counter_.total());
  }
  [[nodiscard]] std::string name() const override { return "sample entropy"; }
  [[nodiscard]] std::unique_ptr<WindowAccumulator> clone() const override {
    return std::make_unique<EntropyAccumulator>(*this);
  }

 private:
  stats::EntropyBias bias_;
  double bin_width_;
  FlatBinCounter counter_;
};

/// Exact dispersion accumulators: buffer the window (bounded by the window
/// size) and run the very same sorted-quantile code as the batch features.
class BufferedMadAccumulator final : public WindowAccumulator {
 public:
  void add(std::span<const double> xs) override {
    buffer_.insert(buffer_.end(), xs.begin(), xs.end());
  }
  [[nodiscard]] double value() const override { return stats::mad(buffer_); }
  void reset() override { buffer_.clear(); }
  [[nodiscard]] std::size_t count() const override { return buffer_.size(); }
  [[nodiscard]] std::string name() const override { return "MAD"; }
  [[nodiscard]] std::unique_ptr<WindowAccumulator> clone() const override {
    return std::make_unique<BufferedMadAccumulator>(*this);
  }

 private:
  std::vector<double> buffer_;
};

class BufferedIqrAccumulator final : public WindowAccumulator {
 public:
  void add(std::span<const double> xs) override {
    buffer_.insert(buffer_.end(), xs.begin(), xs.end());
  }
  [[nodiscard]] double value() const override { return stats::iqr(buffer_); }
  void reset() override { buffer_.clear(); }
  [[nodiscard]] std::size_t count() const override { return buffer_.size(); }
  [[nodiscard]] std::string name() const override { return "IQR"; }
  [[nodiscard]] std::unique_ptr<WindowAccumulator> clone() const override {
    return std::make_unique<BufferedIqrAccumulator>(*this);
  }

 private:
  std::vector<double> buffer_;
};

/// Sketched MAD: a P² median of the samples plus a P² median of the
/// absolute deviations from the RUNNING median estimate. The deviation
/// stream uses the current (not final) median, so on top of the P² marker
/// error this adds a warm-up bias that fades as the window grows — fine
/// for the large windows the sketch mode exists for.
class SketchMadAccumulator final : public WindowAccumulator {
 public:
  void add(std::span<const double> xs) override {
    for (double x : xs) {
      median_.add(x);
      deviation_.add(std::abs(x - median_.value()));
    }
  }
  [[nodiscard]] double value() const override { return deviation_.value(); }
  void reset() override {
    median_.reset();
    deviation_.reset();
  }
  [[nodiscard]] std::size_t count() const override { return median_.count(); }
  [[nodiscard]] std::string name() const override { return "MAD (P2)"; }
  [[nodiscard]] std::unique_ptr<WindowAccumulator> clone() const override {
    return std::make_unique<SketchMadAccumulator>(*this);
  }

 private:
  stats::P2Quantile median_{0.5};
  stats::P2Quantile deviation_{0.5};
};

class SketchIqrAccumulator final : public WindowAccumulator {
 public:
  void add(std::span<const double> xs) override {
    for (double x : xs) {
      q1_.add(x);
      q3_.add(x);
    }
  }
  [[nodiscard]] double value() const override {
    return std::max(0.0, q3_.value() - q1_.value());
  }
  void reset() override {
    q1_.reset();
    q3_.reset();
  }
  [[nodiscard]] std::size_t count() const override { return q1_.count(); }
  [[nodiscard]] std::string name() const override { return "IQR (P2)"; }
  [[nodiscard]] std::unique_ptr<WindowAccumulator> clone() const override {
    return std::make_unique<SketchIqrAccumulator>(*this);
  }

 private:
  stats::P2Quantile q1_{0.25};
  stats::P2Quantile q3_{0.75};
};

}  // namespace

std::unique_ptr<WindowAccumulator> make_window_accumulator(
    FeatureKind kind, const AccumulatorOptions& options) {
  switch (kind) {
    case FeatureKind::kSampleMean:
      return std::make_unique<MeanAccumulator>();
    case FeatureKind::kSampleVariance:
      return std::make_unique<VarianceAccumulator>();
    case FeatureKind::kSampleEntropy:
      LINKPAD_EXPECTS(options.entropy_bin_width > 0.0 &&
                      "kSampleEntropy needs entropy_bin_width > 0 (set "
                      "AccumulatorOptions::entropy_bin_width or train via "
                      "DetectorBank for Scott-rule auto-selection)");
      return std::make_unique<EntropyAccumulator>(options.entropy_bin_width,
                                                  options.entropy_bias);
    case FeatureKind::kMedianAbsDeviation:
      if (options.quantile_mode == QuantileMode::kP2Sketch) {
        return std::make_unique<SketchMadAccumulator>();
      }
      return std::make_unique<BufferedMadAccumulator>();
    case FeatureKind::kInterquartileRange:
      if (options.quantile_mode == QuantileMode::kP2Sketch) {
        return std::make_unique<SketchIqrAccumulator>();
      }
      return std::make_unique<BufferedIqrAccumulator>();
  }
  return nullptr;
}

}  // namespace linkpad::classify
