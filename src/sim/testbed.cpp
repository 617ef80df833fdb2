#include "sim/testbed.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace linkpad::sim {

void Testbed::TapAdapter::on_packet(const Packet& packet, Seconds now) {
  if (packet.flow != FlowId::kMonitored) return;
  last_emitted_ = now;
  out_.push_back(path_.traverse(now, rng_));
}

std::size_t Testbed::emitted_arrivals() const {
  const bool in_flight = tap_->last_emitted() > sim_.now();
  return tap_arrivals_.size() - (in_flight ? 1 : 0);
}

Testbed::Testbed(const TestbedConfig& config, util::Rng& rng)
    : config_(config),
      rng_(rng),
      path_(config.hops_before_tap, config.wire_bytes),
      source_(config.payload_rate, config.payload_bytes) {
  LINKPAD_EXPECTS(config.policy != nullptr);

  tap_ = std::make_unique<TapAdapter>(path_, rng_, tap_arrivals_);
  gateway_ = std::make_unique<PaddingGateway>(
      sim_, config.policy->clone(), config.jitter, rng_, *tap_,
      config.wire_bytes);
}

std::vector<Seconds> Testbed::collect_piats(std::size_t count) {
  std::vector<Seconds> piats;
  piats.reserve(count);
  collect_piats(count, piats);
  return piats;
}

std::size_t Testbed::collect_piats(std::size_t count, std::vector<Seconds>& out) {
  LINKPAD_EXPECTS(count > 0);
  if (!started_) {
    source_.start(sim_, *gateway_, rng_);
    gateway_->start();
    started_ = true;
    // PIAT k uses arrivals k-1 and k; the first `warmup_piats` PIATs are
    // transients, so the first served PIAT diffs arrivals[warmup, warmup+1].
    cursor_ = config_.warmup_piats + 1;
  }

  const std::size_t target = cursor_ + count;  // need arrivals [0, target)

  // Run in slabs of simulated time until enough packets crossed the tap.
  // Only packets already emitted count: a capture then ends at the first
  // slab by which its last packet left GW1, not merely fired, so the
  // gateway counters and elapsed time it leaves behind (measured_wire_bps,
  // overhead accounting) do not hinge on a packet still in flight.
  const Seconds slab =
      static_cast<Seconds>(count + config_.warmup_piats + 2) *
      config_.policy->mean_interval();
  while (emitted_arrivals() < target) {
    sim_.run_until(sim_.now() + slab);
    LINKPAD_ENSURES(!sim_.empty());  // sources reschedule forever
  }

  for (std::size_t i = cursor_; i < target; ++i) {
    out.push_back(tap_arrivals_[i] - tap_arrivals_[i - 1]);
  }
  cursor_ = target;

  // Keep memory bounded across repeated collects: drop everything before
  // the last consumed arrival.
  if (cursor_ > (1u << 16)) {
    tap_arrivals_.erase(tap_arrivals_.begin(),
                        tap_arrivals_.begin() +
                            static_cast<std::ptrdiff_t>(cursor_ - 1));
    cursor_ = 1;
  }
  return count;
}

std::vector<Seconds> collect_piats(const TestbedConfig& config,
                                   util::Rng& rng, std::size_t count) {
  Testbed bed(config, rng);
  return bed.collect_piats(count);
}

double Testbed::measured_wire_bps() const {
  const Seconds elapsed = sim_.now();
  if (elapsed <= 0.0) return 0.0;
  const GatewayStats& gs = gateway_->stats();
  return 8.0 * static_cast<double>(gs.payload_bytes + gs.padding_bytes) /
         elapsed;
}

double measured_wire_rate_bps(const TestbedConfig& config, util::Rng& rng,
                              std::size_t piats) {
  LINKPAD_EXPECTS(piats > 0);
  Testbed bed(config, rng);
  std::vector<Seconds> sink;
  sink.reserve(piats);
  bed.collect_piats(piats, sink);
  return bed.measured_wire_bps();
}

double padded_wire_rate_bps(const TestbedConfig& config) {
  LINKPAD_EXPECTS(config.policy != nullptr);
  LINKPAD_EXPECTS(config.wire_bytes > 0);
  return 8.0 * static_cast<double>(config.wire_bytes) /
         config.policy->mean_interval();
}

void add_cross_load(TestbedConfig& config, double extra_bps,
                    double max_utilization) {
  LINKPAD_EXPECTS(extra_bps >= 0.0);
  LINKPAD_EXPECTS(max_utilization > 0.0 && max_utilization < 1.0);
  if (extra_bps == 0.0) return;
  for (HopConfig& hop : config.hops_before_tap) {
    const double loaded = hop.cross_utilization + extra_bps / hop.bandwidth_bps;
    hop.cross_utilization =
        std::max(hop.cross_utilization, std::min(loaded, max_utilization));
  }
}

}  // namespace linkpad::sim
