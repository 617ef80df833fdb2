#include "sim/hop.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace linkpad::sim {

namespace {
Seconds service_time(int bytes, double bandwidth_bps) {
  return static_cast<Seconds>(bytes) * 8.0 / bandwidth_bps;
}
}  // namespace

HopChannel::HopChannel(const HopConfig& config, int monitored_packet_bytes)
    : config_(config),
      monitored_service_(service_time(monitored_packet_bytes, config.bandwidth_bps)),
      sampler_(config.cross_utilization,
               service_time(config.cross_packet_bytes, config.bandwidth_bps)) {
  LINKPAD_EXPECTS(config.bandwidth_bps > 0.0);
  LINKPAD_EXPECTS(config.cross_utilization >= 0.0 && config.cross_utilization < 1.0);
  LINKPAD_EXPECTS(monitored_packet_bytes > 0);
}

Seconds HopChannel::traverse(Seconds arrival, util::Rng& rng) {
  const Seconds wait = sampler_.sample(rng);
  Seconds start_service = arrival + wait;
  // FIFO within the monitored flow: we cannot begin service before the
  // previous monitored packet's service completed.
  if (last_departure_ >= 0.0) {
    start_service = std::max(start_service, last_departure_);
  }
  const Seconds departure = start_service + monitored_service_;
  last_departure_ = departure;
  return departure + config_.propagation_delay;
}

void HopChannel::set_cross_utilization(double rho) {
  config_.cross_utilization = rho;
  sampler_.set_rho(rho);
}

PathModel::PathModel(const std::vector<HopConfig>& hops,
                     int monitored_packet_bytes) {
  hops_.reserve(hops.size());
  base_utilization_.reserve(hops.size());
  for (const auto& cfg : hops) {
    hops_.emplace_back(cfg, monitored_packet_bytes);
    base_utilization_.push_back(cfg.cross_utilization);
  }
}

Seconds PathModel::traverse(Seconds t_emit, util::Rng& rng) {
  Seconds t = t_emit;
  for (auto& hop : hops_) {
    t = hop.traverse(t, rng);
  }
  return t;
}

void PathModel::scale_utilization(double scale) {
  LINKPAD_EXPECTS(scale >= 0.0);
  for (std::size_t i = 0; i < hops_.size(); ++i) {
    const double rho = std::min(base_utilization_[i] * scale, 0.95);
    hops_[i].set_cross_utilization(rho);
  }
}

double PathModel::total_wait_variance() const {
  double v = 0.0;
  for (const auto& hop : hops_) v += hop.wait_variance();
  return v;
}

}  // namespace linkpad::sim
