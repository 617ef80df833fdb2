#include "core/scenarios.hpp"

#include "util/check.hpp"

namespace linkpad::core {

sim::TestbedConfig Scenario::config_for(std::size_t c) const {
  LINKPAD_EXPECTS(c < payload_rates.size());
  sim::TestbedConfig cfg = base;
  cfg.payload_rate = payload_rates[c];
  return cfg;
}

std::shared_ptr<const sim::TimerPolicy> make_cit(Seconds tau) {
  return std::make_shared<sim::ConstantIntervalTimer>(tau);
}

std::shared_ptr<const sim::TimerPolicy> make_vit(Seconds sigma, Seconds tau) {
  return std::make_shared<sim::NormalIntervalTimer>(tau, sigma);
}

std::shared_ptr<const sim::TimerPolicy> make_onoff(Seconds hangover,
                                                   Seconds tau) {
  return std::make_shared<sim::OnOffTimer>(
      std::make_unique<sim::ConstantIntervalTimer>(tau), hangover);
}

std::shared_ptr<const sim::TimerPolicy> make_budgeted(
    double dummy_budget_per_sec, double burst, Seconds tau) {
  return std::make_shared<sim::TokenBucketTimer>(
      std::make_unique<sim::ConstantIntervalTimer>(tau), dummy_budget_per_sec,
      burst);
}

std::shared_ptr<const sim::TimerPolicy> make_adaptive(Seconds base_gap,
                                                      double gain,
                                                      Seconds min_gap) {
  return std::make_shared<sim::AdaptiveGapTimer>(base_gap, gain, min_gap);
}

namespace {

sim::TestbedConfig base_config(std::shared_ptr<const sim::TimerPolicy> policy) {
  sim::TestbedConfig cfg;
  cfg.policy = std::move(policy);
  cfg.payload_bytes = 512;
  cfg.wire_bytes = constants::kWireBytes;
  // TimeSys Linux/RT gateway host: calibrated in DESIGN.md so that the
  // zero-cross padded PIAT spread and variance ratio match Fig 4.
  cfg.jitter.sigma_context_switch = 10e-6;
  cfg.jitter.sigma_irq_block = 6.4e-6;
  return cfg;
}

/// The Marconi ESR-5000 output link shared with the cross-traffic subnets
/// (Fig 3): 500 Mbit/s (OC-12-class) shared uplink, constant 1500-B cross
/// packets (service ≈ 24 µs). Calibrated so entropy detection at n = 1000
/// falls from ≈0.95+ (ρ=0.05) to ≈0.65–0.75 (ρ=0.4–0.5) — the Fig 6 shape
/// including the "entropy still ~70% at 40% utilization" observation.
sim::HopConfig marconi_hop(double utilization) {
  sim::HopConfig hop;
  hop.name = "marconi-esr5000";
  hop.bandwidth_bps = 500e6;
  hop.cross_utilization = utilization;
  hop.cross_packet_bytes = 1500;
  hop.propagation_delay = 20e-6;
  return hop;
}

}  // namespace

Scenario lab_zero_cross(std::shared_ptr<const sim::TimerPolicy> policy) {
  Scenario s;
  s.name = "lab-zero-cross";
  s.payload_rates = {constants::kRateLow, constants::kRateHigh};
  s.base = base_config(std::move(policy));
  // Tap directly at GW1's output: no hops, σ_net = 0.
  return s;
}

Scenario lab_cross_traffic(std::shared_ptr<const sim::TimerPolicy> policy,
                           double utilization) {
  LINKPAD_EXPECTS(utilization >= 0.0 && utilization < 1.0);
  Scenario s;
  s.name = "lab-cross-traffic";
  s.payload_rates = {constants::kRateLow, constants::kRateHigh};
  s.base = base_config(std::move(policy));
  s.base.hops_before_tap = {marconi_hop(utilization)};
  return s;
}

const sim::DiurnalProfile& campus_profile() {
  // Texas A&M enterprise network: light load, afternoon peak.
  static const sim::DiurnalProfile profile(/*quiet=*/0.03, /*peak=*/0.18,
                                           /*peak_hour=*/15.0,
                                           /*width_hours=*/5.0);
  return profile;
}

const sim::DiurnalProfile& wan_profile() {
  // Internet path Ohio → Texas: substantially loaded during the day,
  // clearly quieter (but never idle) around 02:00–05:00. Calibrated so the
  // bottleneck hop gives entropy detection ≈0.68 at the nightly trough and
  // ≈0.5 at the afternoon peak (Fig 8b shape).
  static const sim::DiurnalProfile profile(/*quiet=*/0.13, /*peak=*/0.45,
                                           /*peak_hour=*/15.0,
                                           /*width_hours=*/6.0);
  return profile;
}

Scenario campus(std::shared_ptr<const sim::TimerPolicy> policy, double hour) {
  Scenario s;
  s.name = "campus";
  s.payload_rates = {constants::kRateLow, constants::kRateHigh};
  s.base = base_config(std::move(policy));

  const double rho = campus_profile().utilization_at(hour);
  // Four switched gigabit hops across the campus backbone. Per-hop noise is
  // small (Var(W) ≈ 1.6–3.5 µs² over the diurnal range), keeping r ≈ 1.22+
  // — detection stays high all day, the paper's Fig 8(a) observation.
  for (int i = 0; i < 4; ++i) {
    sim::HopConfig hop;
    hop.name = "campus-hop-" + std::to_string(i);
    hop.bandwidth_bps = 1e9;
    hop.cross_utilization = rho;
    hop.cross_packet_bytes = 800;
    hop.propagation_delay = 50e-6;
    s.base.hops_before_tap.push_back(hop);
  }
  return s;
}

Scenario wan(std::shared_ptr<const sim::TimerPolicy> policy, double hour) {
  Scenario s;
  s.name = "wan-ohio-texas";
  s.payload_rates = {constants::kRateLow, constants::kRateHigh};
  s.base = base_config(std::move(policy));

  const double rho = wan_profile().utilization_at(hour);

  // Campus egress at Ohio State.
  sim::HopConfig edge;
  edge.name = "wan-edge";
  edge.bandwidth_bps = 1e9;
  edge.cross_utilization = rho * 0.5;
  edge.cross_packet_bytes = 800;
  edge.propagation_delay = 100e-6;
  s.base.hops_before_tap.push_back(edge);

  // One congested peering/regional bottleneck dominates δ_net — the usual
  // shape of a 2003 Internet path.
  sim::HopConfig peering;
  peering.name = "wan-peering-bottleneck";
  peering.bandwidth_bps = 250e6;
  peering.cross_utilization = rho;
  peering.cross_packet_bytes = 1000;
  peering.propagation_delay = 2e-3;
  s.base.hops_before_tap.push_back(peering);

  // Thirteen fast backbone hops: individually tiny noise, long latency.
  for (int i = 0; i < 13; ++i) {
    sim::HopConfig hop;
    hop.name = "wan-backbone-" + std::to_string(i);
    hop.bandwidth_bps = 10e9;
    hop.cross_utilization = rho * 0.6;
    hop.cross_packet_bytes = 1000;
    hop.propagation_delay = 1.5e-3;
    s.base.hops_before_tap.push_back(hop);
  }
  return s;
}

double padded_wire_rate_bps(const Scenario& scenario) {
  return sim::padded_wire_rate_bps(scenario.base);
}

double flow_wire_rate_bps(const Scenario& scenario, std::uint64_t measure_seed,
                          std::size_t piats_per_class) {
  LINKPAD_EXPECTS(scenario.base.policy != nullptr);
  LINKPAD_EXPECTS(!scenario.payload_rates.empty());
  if (!scenario.base.policy->payload_reactive()) {
    return sim::padded_wire_rate_bps(scenario.base);
  }
  // Reactive policy: the wire rate depends on the (hidden) payload class, so
  // measure each class with its own derived substream and average.
  const util::RngFactory factory(measure_seed);
  double sum = 0.0;
  for (std::size_t c = 0; c < scenario.payload_rates.size(); ++c) {
    auto rng = factory.make(c);
    sum += sim::measured_wire_rate_bps(scenario.config_for(c), rng,
                                       piats_per_class);
  }
  return sum / static_cast<double>(scenario.payload_rates.size());
}

Scenario with_population_load(Scenario scenario, std::size_t other_flows,
                              double max_hop_utilization,
                              double per_flow_bps) {
  if (per_flow_bps < 0.0) {
    // The analytic constant rate only exists while the constant-wire-rate
    // invariant holds; reactive policies must pass a measured rate.
    LINKPAD_EXPECTS(scenario.base.policy != nullptr &&
                    !scenario.base.policy->payload_reactive());
    per_flow_bps = sim::padded_wire_rate_bps(scenario.base);
  }
  sim::add_cross_load(scenario.base,
                      static_cast<double>(other_flows) * per_flow_bps,
                      max_hop_utilization);
  return scenario;
}

Scenario lab_multirate(std::shared_ptr<const sim::TimerPolicy> policy,
                       std::size_t m, PacketsPerSecond rate_lo,
                       PacketsPerSecond rate_hi) {
  LINKPAD_EXPECTS(m >= 2);
  LINKPAD_EXPECTS(rate_hi > rate_lo);
  Scenario s;
  s.name = "lab-multirate-" + std::to_string(m);
  s.base = base_config(std::move(policy));
  for (std::size_t i = 0; i < m; ++i) {
    const double f = static_cast<double>(i) / static_cast<double>(m - 1);
    s.payload_rates.push_back(rate_lo + f * (rate_hi - rate_lo));
  }
  return s;
}

}  // namespace linkpad::core
