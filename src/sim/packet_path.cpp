#include "sim/packet_path.hpp"

#include "util/check.hpp"

namespace linkpad::sim {

PacketLevelTestbed::PacketLevelTestbed(const TestbedConfig& config,
                                       util::Rng& rng)
    : config_(config),
      rng_(rng),
      source_(config.payload_rate, config.payload_bytes) {
  LINKPAD_EXPECTS(config.policy != nullptr);

  // Wire back to front: sniffer <- router_k <- ... <- router_0 <- gateway.
  PacketSink* next = &sniffer_;
  for (auto it = config.hops_before_tap.rbegin();
       it != config.hops_before_tap.rend(); ++it) {
    auto router =
        std::make_unique<Router>(sim_, it->name, it->bandwidth_bps, *next);
    const double cross_service =
        static_cast<double>(it->cross_packet_bytes) * 8.0 / it->bandwidth_bps;
    const double cross_rate =
        it->cross_utilization > 0.0 ? it->cross_utilization / cross_service
                                    : 0.0;
    cross_.push_back(std::make_unique<CrossTrafficProcess>(
        sim_, *router, cross_rate, it->cross_packet_bytes, rng_));
    next = router.get();
    routers_.push_back(std::move(router));
  }
  // routers_ currently holds far-to-near; reverse for hop(i) == i-th hop
  // after the gateway.
  std::reverse(routers_.begin(), routers_.end());

  // Routers read the clock: wire packets reach them as events.
  delivery_ = std::make_unique<ScheduledDelivery>(sim_, *next);
  gateway_ = std::make_unique<PaddingGateway>(sim_, config.policy->clone(),
                                              config.jitter, rng_, *delivery_,
                                              config.wire_bytes);
}

std::vector<Seconds> PacketLevelTestbed::collect_piats(std::size_t count) {
  LINKPAD_EXPECTS(count > 0);
  if (!started_) {
    source_.start(sim_, *gateway_, rng_);
    for (auto& cross : cross_) cross->start();
    gateway_->start();
    started_ = true;
    consumed_arrivals_ = config_.warmup_piats + 1;
  }

  const std::size_t target = consumed_arrivals_ + count;
  const Seconds slab = static_cast<Seconds>(count + config_.warmup_piats + 2) *
                       config_.policy->mean_interval();
  while (sniffer_.captured() < target) {
    sim_.run_until(sim_.now() + slab);
    LINKPAD_ENSURES(!sim_.empty());
  }

  const auto& arrivals = sniffer_.arrival_times();
  std::vector<Seconds> piats;
  piats.reserve(count);
  for (std::size_t i = consumed_arrivals_; i < target; ++i) {
    piats.push_back(arrivals[i] - arrivals[i - 1]);
  }
  consumed_arrivals_ = target;
  return piats;
}

}  // namespace linkpad::sim
