#include "sim/mg1.hpp"

#include "util/check.hpp"

namespace linkpad::sim {

Mg1WaitSampler::Mg1WaitSampler(double rho, Seconds mean_service)
    : mean_service_(mean_service) {
  LINKPAD_EXPECTS(mean_service > 0.0);
  set_rho(rho);
}

void Mg1WaitSampler::set_rho(double rho) {
  LINKPAD_EXPECTS(rho >= 0.0 && rho < 1.0);
  rho_ = rho;
}

double Mg1WaitSampler::mean_wait() const {
  if (rho_ <= 0.0) return 0.0;
  const double s = mean_service_;
  const double lambda = rho_ / s;
  return lambda * (s * s) / (2.0 * (1.0 - rho_));
}

double Mg1WaitSampler::wait_variance() const {
  if (rho_ <= 0.0) return 0.0;
  const double s = mean_service_;
  const double lambda = rho_ / s;
  const double m1 = lambda * (s * s) / (2.0 * (1.0 - rho_));
  return lambda * (s * s * s) / (3.0 * (1.0 - rho_)) + m1 * m1;
}

}  // namespace linkpad::sim
