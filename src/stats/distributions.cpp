#include "stats/distributions.hpp"

#include <algorithm>
#include <cmath>

#include "stats/special_math.hpp"
#include "util/check.hpp"

namespace linkpad::stats {

namespace {
constexpr double kTwoPi = 6.283185307179586;
}  // namespace

double sample_standard_normal(Rng& rng) {
  // Marsaglia polar method; we deliberately do not cache the second deviate
  // so that the distribution objects stay stateless/shareable.
  for (;;) {
    const double u = 2.0 * rng.uniform01() - 1.0;
    const double v = 2.0 * rng.uniform01() - 1.0;
    const double s = u * u + v * v;
    if (s > 0.0 && s < 1.0) {
      return u * std::sqrt(-2.0 * std::log(s) / s);
    }
  }
}

// ---------------------------------------------------------------- Normal --

Normal::Normal(double mean_value, double sigma) : mean_(mean_value), sigma_(sigma) {
  LINKPAD_EXPECTS(sigma > 0.0);
}

double Normal::pdf(double x) const {
  const double z = (x - mean_) / sigma_;
  return std::exp(-0.5 * z * z) / (sigma_ * std::sqrt(kTwoPi));
}

double Normal::log_pdf(double x) const {
  const double z = (x - mean_) / sigma_;
  return -0.5 * z * z - std::log(sigma_) - 0.5 * std::log(kTwoPi);
}

double Normal::cdf(double x) const {
  return normal_cdf((x - mean_) / sigma_);
}

double Normal::quantile(double p) const {
  return mean_ + sigma_ * normal_quantile(p);
}

double Normal::sample(Rng& rng) const {
  return mean_ + sigma_ * sample_standard_normal(rng);
}

// ------------------------------------------------------------ HalfNormal --

HalfNormal::HalfNormal(double sigma) : sigma_(sigma) {
  LINKPAD_EXPECTS(sigma > 0.0);
}

double HalfNormal::mean() const { return sigma_ * std::sqrt(2.0 / M_PI); }

double HalfNormal::variance() const {
  return sigma_ * sigma_ * (1.0 - 2.0 / M_PI);
}

double HalfNormal::pdf(double x) const {
  if (x < 0.0) return 0.0;
  const double z = x / sigma_;
  return std::sqrt(2.0 / M_PI) / sigma_ * std::exp(-0.5 * z * z);
}

double HalfNormal::sample(Rng& rng) const {
  return std::abs(sample_standard_normal(rng)) * sigma_;
}

// ------------------------------------------------------- TruncatedNormal --

TruncatedNormal::TruncatedNormal(double mean_value, double sigma, double lower)
    : mean_(mean_value), sigma_(sigma), lower_(lower) {
  LINKPAD_EXPECTS(sigma > 0.0);
  alpha_ = (lower_ - mean_) / sigma_;
  z_ = 1.0 - normal_cdf(alpha_);
  LINKPAD_EXPECTS(z_ > 0.0);
}

double TruncatedNormal::mean() const {
  const double lambda = normal_pdf(alpha_) / z_;
  return mean_ + sigma_ * lambda;
}

double TruncatedNormal::variance() const {
  const double lambda = normal_pdf(alpha_) / z_;
  const double delta = lambda * (lambda - alpha_);
  return sigma_ * sigma_ * (1.0 - delta);
}

double TruncatedNormal::pdf(double x) const {
  if (x < lower_) return 0.0;
  const double z = (x - mean_) / sigma_;
  return normal_pdf(z) / (sigma_ * z_);
}

double TruncatedNormal::sample(Rng& rng) const {
  if (alpha_ < -8.0) {
    // Truncation point is >8σ below the mean: the constraint is
    // statistically invisible; plain normal sampling is exact in practice.
    return mean_ + sigma_ * sample_standard_normal(rng);
  }
  if (z_ > 0.25) {
    // Cheap rejection: expected <4 iterations.
    for (;;) {
      const double x = mean_ + sigma_ * sample_standard_normal(rng);
      if (x >= lower_) return x;
    }
  }
  // Deep truncation: inverse-CDF on the conditioned uniform range.
  const double u_lo = normal_cdf(alpha_);
  const double u = u_lo + (1.0 - u_lo) * rng.uniform01();
  const double clipped = std::min(std::max(u, 1e-300), 1.0 - 1e-16);
  return mean_ + sigma_ * normal_quantile(clipped);
}

// ----------------------------------------------------------- Exponential --

Exponential::Exponential(double mean_value) : mean_(mean_value) {
  LINKPAD_EXPECTS(mean_value > 0.0);
}

double Exponential::pdf(double x) const {
  if (x < 0.0) return 0.0;
  return std::exp(-x / mean_) / mean_;
}

double Exponential::cdf(double x) const {
  if (x < 0.0) return 0.0;
  return 1.0 - std::exp(-x / mean_);
}

double Exponential::sample(Rng& rng) const {
  // Inversion: -mean * log(1 - U) with U in [0,1) never takes log(0).
  return -mean_ * std::log1p(-rng.uniform01());
}

// --------------------------------------------------------------- Uniform --

Uniform::Uniform(double lo, double hi) : lo_(lo), hi_(hi) {
  LINKPAD_EXPECTS(hi > lo);
}

double Uniform::variance() const {
  const double w = hi_ - lo_;
  return w * w / 12.0;
}

double Uniform::pdf(double x) const {
  return (x >= lo_ && x < hi_) ? 1.0 / (hi_ - lo_) : 0.0;
}

double Uniform::sample(Rng& rng) const { return rng.uniform(lo_, hi_); }

// ---------------------------------------------------------------- Pareto --

Pareto::Pareto(double scale, double shape) : scale_(scale), shape_(shape) {
  LINKPAD_EXPECTS(scale > 0.0);
  LINKPAD_EXPECTS(shape > 0.0);
}

double Pareto::mean() const {
  LINKPAD_EXPECTS(shape_ > 1.0);
  return shape_ * scale_ / (shape_ - 1.0);
}

double Pareto::sample(Rng& rng) const {
  // Inversion of the survival function.
  const double u = 1.0 - rng.uniform01();  // in (0, 1]
  return scale_ * std::pow(u, -1.0 / shape_);
}

// --------------------------------------------------------------- Poisson --

std::uint64_t sample_poisson(Rng& rng, double lambda) {
  LINKPAD_EXPECTS(lambda >= 0.0);
  if (lambda == 0.0) return 0;
  if (lambda < 30.0) {
    // Knuth inversion.
    const double limit = std::exp(-lambda);
    double prod = rng.uniform01();
    std::uint64_t k = 0;
    while (prod > limit) {
      prod *= rng.uniform01();
      ++k;
    }
    return k;
  }
  // Normal approximation with continuity correction, rejected below zero;
  // adequate for the traffic-volume draws we use it for (lambda >= 30).
  for (;;) {
    const double x = lambda + std::sqrt(lambda) * sample_standard_normal(rng);
    if (x >= -0.5) return static_cast<std::uint64_t>(std::llround(std::max(0.0, x)));
  }
}

// ------------------------------------------------------------ ChiSquared --

ChiSquared::ChiSquared(double dof) : dof_(dof) { LINKPAD_EXPECTS(dof > 0.0); }

double ChiSquared::pdf(double x) const {
  if (x <= 0.0) return 0.0;
  const double k2 = 0.5 * dof_;
  return std::exp((k2 - 1.0) * std::log(x) - 0.5 * x - k2 * std::log(2.0) -
                  log_gamma(k2));
}

double ChiSquared::cdf(double x) const { return chi_squared_cdf(dof_, x); }

}  // namespace linkpad::stats
