// Probability distributions with pdf/cdf/quantile/sampling, bound to the
// project's deterministic xoshiro engine.
//
// These are the building blocks of both sides of the study:
//  * the SIMULATOR samples from them (timer intervals, jitter, cross
//    traffic), and
//  * the THEORY evaluates their pdfs/cdfs (Bayes error integrals,
//    Theorems 1–3).
//
// Sampling functions take the engine by reference and are `const` on the
// distribution object, so one distribution can be shared across threads with
// per-thread engines.
#pragma once


#include "util/rng.hpp"

namespace linkpad::stats {

using Rng = util::Rng;

/// Draw one standard normal via the Marsaglia polar method (deterministic:
/// consumes a variable but seed-reproducible number of uniforms).
double sample_standard_normal(Rng& rng);

/// Normal N(mean, sigma²).
class Normal {
 public:
  Normal(double mean, double sigma);

  [[nodiscard]] double mean() const { return mean_; }
  [[nodiscard]] double sigma() const { return sigma_; }
  [[nodiscard]] double variance() const { return sigma_ * sigma_; }

  [[nodiscard]] double pdf(double x) const;
  [[nodiscard]] double log_pdf(double x) const;
  [[nodiscard]] double cdf(double x) const;
  [[nodiscard]] double quantile(double p) const;
  [[nodiscard]] double sample(Rng& rng) const;

 private:
  double mean_;
  double sigma_;
};

/// Half-normal: |Z|·sigma for Z ~ N(0,1). Models one-sided blocking delays
/// (an interrupt can only POSTPONE the timer, never advance it).
class HalfNormal {
 public:
  explicit HalfNormal(double sigma);

  [[nodiscard]] double sigma() const { return sigma_; }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double variance() const;
  [[nodiscard]] double pdf(double x) const;
  [[nodiscard]] double sample(Rng& rng) const;

 private:
  double sigma_;
};

/// Normal truncated to [lower, +inf). Used for VIT timer intervals, which
/// must stay positive no matter how large σ_T is pushed in the sweeps.
class TruncatedNormal {
 public:
  TruncatedNormal(double mean, double sigma, double lower);

  [[nodiscard]] double mean_parameter() const { return mean_; }
  [[nodiscard]] double sigma_parameter() const { return sigma_; }
  [[nodiscard]] double lower() const { return lower_; }

  /// Actual mean of the truncated law (≥ mean_parameter when truncating
  /// from below).
  [[nodiscard]] double mean() const;
  /// Actual variance of the truncated law (≤ σ²).
  [[nodiscard]] double variance() const;
  [[nodiscard]] double pdf(double x) const;
  [[nodiscard]] double sample(Rng& rng) const;

 private:
  double mean_;
  double sigma_;
  double lower_;
  double alpha_;      // standardized truncation point
  double z_;          // normalizing mass 1 - Phi(alpha)
};

/// Exponential with given mean (rate = 1/mean).
class Exponential {
 public:
  explicit Exponential(double mean);

  [[nodiscard]] double mean() const { return mean_; }
  [[nodiscard]] double variance() const { return mean_ * mean_; }
  [[nodiscard]] double pdf(double x) const;
  [[nodiscard]] double cdf(double x) const;
  [[nodiscard]] double sample(Rng& rng) const;

 private:
  double mean_;
};

/// Uniform on [lo, hi).
class Uniform {
 public:
  Uniform(double lo, double hi);

  [[nodiscard]] double lo() const { return lo_; }
  [[nodiscard]] double hi() const { return hi_; }
  [[nodiscard]] double mean() const { return 0.5 * (lo_ + hi_); }
  [[nodiscard]] double variance() const;
  [[nodiscard]] double pdf(double x) const;
  [[nodiscard]] double sample(Rng& rng) const;

 private:
  double lo_;
  double hi_;
};

}  // namespace linkpad::stats
