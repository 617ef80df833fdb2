// Confidence intervals on empirical detection rates.
//
// Detection rates are Monte-Carlo estimates; every FeatureOutcome carries a
// Wilson interval (proportion_ci) so "paper shape vs measured shape"
// comparisons are honest about noise.
#pragma once

#include <cstddef>

namespace linkpad::stats {

/// Point estimate plus a [lo, hi] percentile confidence interval.
struct BootstrapResult {
  double estimate = 0.0;
  double lo = 0.0;
  double hi = 0.0;
};

/// CI for a Bernoulli success probability from `successes` out of `trials`
/// (Wilson score interval — cheaper and better behaved than resampling for
/// proportions).
BootstrapResult proportion_ci(std::size_t successes, std::size_t trials,
                              double confidence);

}  // namespace linkpad::stats
