#include "sim/mg1.hpp"

#include <cmath>

#include "util/check.hpp"

namespace linkpad::sim {

double TrimodalMix::mean_bytes() {
  double m = 0.0;
  for (int i = 0; i < 3; ++i) m += kSizes[i] * kProbs[i];
  return m;
}

Mg1WaitSampler::Mg1WaitSampler(double rho, Seconds mean_service,
                               ServiceModel model)
    : rho_(rho), mean_service_(mean_service), model_(model) {
  LINKPAD_EXPECTS(rho >= 0.0 && rho < 1.0);
  LINKPAD_EXPECTS(mean_service > 0.0);

  const double s = mean_service_;
  switch (model_) {
    case ServiceModel::kDeterministic:
      es1_ = s;
      es2_ = s * s;
      es3_ = s * s * s;
      break;
    case ServiceModel::kExponential:
      es1_ = s;
      es2_ = 2.0 * s * s;
      es3_ = 6.0 * s * s * s;
      break;
    case ServiceModel::kTrimodal: {
      // Service time of size-b packet is (b / mean_bytes) * mean_service, so
      // the mix's E[S] equals `mean_service` by construction.
      const double mb = TrimodalMix::mean_bytes();
      es1_ = es2_ = es3_ = 0.0;
      for (int i = 0; i < 3; ++i) {
        const double si = TrimodalMix::kSizes[i] / mb * s;
        es1_ += TrimodalMix::kProbs[i] * si;
        es2_ += TrimodalMix::kProbs[i] * si * si;
        es3_ += TrimodalMix::kProbs[i] * si * si * si;
        tri_service_[i] = si;
        tri_weight_[i] = TrimodalMix::kProbs[i] * si;
        tri_total_ += tri_weight_[i];
      }
      break;
    }
  }
  set_rho(rho);
}

void Mg1WaitSampler::set_rho(double rho) {
  LINKPAD_EXPECTS(rho >= 0.0 && rho < 1.0);
  rho_ = rho;
  busy_mean_ = mean_service_ / (1.0 - rho);
}

double Mg1WaitSampler::mean_wait() const {
  if (rho_ <= 0.0) return 0.0;
  const double lambda = rho_ / es1_;
  return lambda * es2_ / (2.0 * (1.0 - rho_));
}

double Mg1WaitSampler::wait_variance() const {
  if (rho_ <= 0.0) return 0.0;
  const double lambda = rho_ / es1_;
  const double m1 = lambda * es2_ / (2.0 * (1.0 - rho_));
  return lambda * es3_ / (3.0 * (1.0 - rho_)) + m1 * m1;
}

}  // namespace linkpad::sim
