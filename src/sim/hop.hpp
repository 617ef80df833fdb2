// Analytic router-hop channel: delay experienced by a monitored packet
// crossing one router whose output link carries Poisson cross traffic.
//
// delay = V (stationary M/G/1 wait, see mg1.hpp) + own service time + prop,
// with per-hop FIFO enforced by a departure-time max-chain so packets of the
// monitored flow can never reorder inside a queue. This is the δ_net source
// of eq. (10): its variance grows with the hop's cross-traffic utilization,
// which is precisely what Fig 6 and Fig 8 measure.
#pragma once

#include <string>
#include <vector>

#include "sim/mg1.hpp"
#include "stats/distributions.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace linkpad::sim {

/// Static description of one hop.
struct HopConfig {
  std::string name = "hop";
  double bandwidth_bps = 1e9;      ///< output link speed
  double cross_utilization = 0.0;  ///< fraction of the link used by cross traffic
  int cross_packet_bytes = 1000;   ///< constant cross packet size (M/D/1)
  Seconds propagation_delay = 50e-6;  ///< constant per-hop latency
};

/// Stateful per-run hop channel.
class HopChannel {
 public:
  HopChannel(const HopConfig& config, int monitored_packet_bytes);

  /// Delay a monitored packet arriving at `arrival`; returns its departure
  /// time from this hop (≥ arrival + service + propagation).
  [[nodiscard]] Seconds traverse(Seconds arrival, util::Rng& rng);

  /// Re-tune the cross utilization (diurnal sweeps).
  void set_cross_utilization(double rho);

  [[nodiscard]] const HopConfig& config() const { return config_; }

  /// Theoretical Var of the queueing component (for calibration tests).
  [[nodiscard]] double wait_variance() const { return sampler_.wait_variance(); }

  /// Own (monitored packet) serialization time on this link.
  [[nodiscard]] Seconds monitored_service() const { return monitored_service_; }

 private:
  HopConfig config_;
  Seconds monitored_service_;
  Mg1WaitSampler sampler_;
  Seconds last_departure_ = -1.0;
};

/// A chain of hops between GW1's output and the adversary's tap.
class PathModel {
 public:
  PathModel(const std::vector<HopConfig>& hops, int monitored_packet_bytes);

  /// Propagate one monitored packet emitted at `t_emit` through every hop;
  /// returns arrival time at the tap.
  [[nodiscard]] Seconds traverse(Seconds t_emit, util::Rng& rng);

  /// Apply a common utilization scale factor (diurnal modulation):
  /// each hop's utilization becomes base_utilization * scale, clamped < 1.
  void scale_utilization(double scale);

  [[nodiscard]] std::size_t hop_count() const { return hops_.size(); }
  [[nodiscard]] const HopChannel& hop(std::size_t i) const { return hops_[i]; }

  /// Sum of per-hop stationary wait variances — the model-level σ_net².
  [[nodiscard]] double total_wait_variance() const;

 private:
  std::vector<HopChannel> hops_;
  std::vector<double> base_utilization_;
};

}  // namespace linkpad::sim
