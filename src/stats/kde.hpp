// Gaussian kernel density estimation.
//
// The paper's adversary does not trust raw histograms for the conditional
// feature densities f(s|ω): "we assume that the adversary uses the Gaussian
// kernel estimator of PDF [Silverman 1986]" (Sec 3.3). This class implements
// exactly that, with Silverman's rule-of-thumb bandwidth as the default and
// Scott's rule / fixed bandwidth for the ablation bench.
//
// Evaluation sorts the training points once and only visits kernels within
// ±8h of the query, so pdf() is O(log N + window) instead of O(N).
#pragma once

#include <span>
#include <vector>

namespace linkpad::stats {

/// Bandwidth selection rule for GaussianKde.
enum class BandwidthRule {
  kSilverman,  ///< 0.9 · min(σ̂, IQR/1.34) · n^(−1/5)   (Silverman 1986)
  kScott,      ///< 1.06 · σ̂ · n^(−1/5)
  kFixed,      ///< caller-supplied bandwidth
};

/// Gaussian KDE over a 1-D sample.
class GaussianKde {
 public:
  /// Fits the estimator; `fixed_bandwidth` is used only with kFixed.
  explicit GaussianKde(std::span<const double> data,
                       BandwidthRule rule = BandwidthRule::kSilverman,
                       double fixed_bandwidth = 0.0);

  [[nodiscard]] double bandwidth() const { return bandwidth_; }
  [[nodiscard]] std::size_t sample_size() const { return sorted_.size(); }

  /// Density estimate f̂(x) ≥ 0.
  [[nodiscard]] double pdf(double x) const;

  /// log f̂(x); returns a very negative floor (not −inf) far from the data so
  /// Bayes comparisons stay well-defined.
  [[nodiscard]] double log_pdf(double x) const;

 private:
  std::vector<double> sorted_;
  double bandwidth_ = 0.0;
};

/// Compute the bandwidth a rule would choose for a sample (exposed for the
/// bandwidth ablation and for tests).
double select_bandwidth(std::span<const double> data, BandwidthRule rule,
                        double fixed_bandwidth = 0.0);

}  // namespace linkpad::stats
