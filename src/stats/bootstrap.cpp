#include "stats/bootstrap.hpp"

#include <algorithm>
#include <cmath>

#include "stats/special_math.hpp"
#include "util/check.hpp"

namespace linkpad::stats {

BootstrapResult proportion_ci(std::size_t successes, std::size_t trials,
                              double confidence) {
  LINKPAD_EXPECTS(trials > 0);
  LINKPAD_EXPECTS(successes <= trials);
  LINKPAD_EXPECTS(confidence > 0.0 && confidence < 1.0);

  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double z = normal_quantile(0.5 + confidence / 2.0);
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double margin =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;

  BootstrapResult result;
  result.estimate = p;
  result.lo = std::max(0.0, center - margin);
  result.hi = std::min(1.0, center + margin);
  return result;
}

}  // namespace linkpad::stats
