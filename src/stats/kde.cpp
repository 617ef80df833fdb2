#include "stats/kde.hpp"

#include <algorithm>
#include <cmath>

#include "stats/descriptive.hpp"
#include "util/check.hpp"

namespace linkpad::stats {

namespace {
constexpr double kInvSqrt2Pi = 0.3989422804014327;
// Kernels beyond 8 bandwidths contribute < 1e-14 relative mass.
constexpr double kWindowSigmas = 8.0;
constexpr double kLogFloor = -745.0;  // ~ log(DBL_MIN)
}  // namespace

double select_bandwidth(std::span<const double> data, BandwidthRule rule,
                        double fixed_bandwidth) {
  LINKPAD_EXPECTS(!data.empty());
  if (rule == BandwidthRule::kFixed) {
    LINKPAD_EXPECTS(fixed_bandwidth > 0.0);
    return fixed_bandwidth;
  }

  const double n = static_cast<double>(data.size());
  const double sd = data.size() > 1 ? sample_stddev(data) : 0.0;
  double spread = sd;
  if (rule == BandwidthRule::kSilverman) {
    const double robust = iqr(data) / 1.34;
    if (robust > 0.0) spread = (sd > 0.0) ? std::min(sd, robust) : robust;
  }
  if (spread <= 0.0) {
    // Degenerate (constant) sample: fall back to a sliver of the magnitude
    // so pdf() stays finite and integrates to ~1.
    spread = std::max(std::abs(data[0]) * 1e-9, 1e-12);
  }
  const double factor = (rule == BandwidthRule::kSilverman) ? 0.9 : 1.06;
  return factor * spread * std::pow(n, -0.2);
}

GaussianKde::GaussianKde(std::span<const double> data, BandwidthRule rule,
                         double fixed_bandwidth)
    : sorted_(data.begin(), data.end()) {
  LINKPAD_EXPECTS(!sorted_.empty());
  std::sort(sorted_.begin(), sorted_.end());
  bandwidth_ = select_bandwidth(sorted_, rule, fixed_bandwidth);
  LINKPAD_ENSURES(bandwidth_ > 0.0);
}

double GaussianKde::pdf(double x) const {
  const double h = bandwidth_;
  const double lo = x - kWindowSigmas * h;
  const double hi = x + kWindowSigmas * h;
  const auto first = std::lower_bound(sorted_.begin(), sorted_.end(), lo);
  const auto last = std::upper_bound(first, sorted_.end(), hi);

  double acc = 0.0;
  for (auto it = first; it != last; ++it) {
    const double z = (x - *it) / h;
    acc += std::exp(-0.5 * z * z);
  }
  return acc * kInvSqrt2Pi / (static_cast<double>(sorted_.size()) * h);
}

double GaussianKde::log_pdf(double x) const {
  const double p = pdf(x);
  if (p > 0.0) return std::log(p);
  // Query far outside the training support: exp() underflowed. Use the
  // nearest kernel's log-density directly — finite for any finite x — so
  // Bayes comparisons between classes still order by distance instead of
  // comparing -inf against -inf.
  const double nearest =
      std::min(std::abs(x - sorted_.front()), std::abs(x - sorted_.back()));
  const double z = nearest / bandwidth_;
  return -0.5 * z * z -
         std::log(static_cast<double>(sorted_.size()) * bandwidth_) -
         0.5 * std::log(2.0 * M_PI);
}

}  // namespace linkpad::stats
