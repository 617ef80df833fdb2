// End-to-end simulated testbed: payload source → padding gateway GW1 →
// router path → adversary tap. One Testbed instance = one run of the
// paper's experimental apparatus at one payload rate.
//
// The tap sits AFTER the hops listed in `hops_before_tap`: an empty list
// reproduces the zero-cross lab capture "right at the output of the sender
// gateway" (Sec 5.1.1); the campus/WAN setups put 4/15 hops before the tap
// (observation point "right in front of the receiver gateway", Sec 5.3).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/gateway.hpp"
#include "sim/hop.hpp"
#include "sim/packet.hpp"
#include "sim/scheduler.hpp"
#include "sim/source.hpp"
#include "sim/timer_policy.hpp"
#include "util/rng.hpp"

namespace linkpad::sim {

/// Full configuration of one testbed run.
struct TestbedConfig {
  // CBR payload traffic entering GW1 from the protected subnet.
  PacketsPerSecond payload_rate = 10.0;
  int payload_bytes = 512;

  // Padding policy prototype (cloned per run) + gateway host characteristics.
  std::shared_ptr<const TimerPolicy> policy;   ///< required
  JitterParams jitter{};
  int wire_bytes = 1000;

  // Unprotected network between GW1 and the adversary's tap.
  std::vector<HopConfig> hops_before_tap;

  // PIATs discarded at the start of each run (queue/phase transients).
  std::size_t warmup_piats = 50;
};

/// One assembled, runnable instance of the system under test.
class Testbed {
 public:
  /// `rng` drives every stochastic element of this run; pass engines from
  /// RngFactory substreams for reproducible parallel experiments.
  Testbed(const TestbedConfig& config, util::Rng& rng);

  /// Run the simulation until `count` post-warmup PIATs are captured at the
  /// tap; returns them in arrival order.
  [[nodiscard]] std::vector<Seconds> collect_piats(std::size_t count);

  /// Streaming form: append `count` further PIATs to `out` and return the
  /// number appended (always `count`; the simulation never exhausts).
  /// Consecutive calls produce one contiguous PIAT stream — warmup is
  /// discarded once per Testbed, so pulling in batches yields exactly the
  /// same series as one big pull.
  std::size_t collect_piats(std::size_t count, std::vector<Seconds>& out);

  [[nodiscard]] const GatewayStats& gateway_stats() const {
    return gateway_->stats();
  }
  [[nodiscard]] const Simulation& simulation() const { return sim_; }
  [[nodiscard]] const TestbedConfig& config() const { return config_; }

  /// MEASURED on-wire bandwidth so far: emitted wire bytes (payload +
  /// padding) over elapsed sim time. Tracks padded_wire_rate_bps for the
  /// paper's policies; for payload-reactive policies this is the only
  /// truthful number. Returns 0 before any simulated time has elapsed.
  [[nodiscard]] double measured_wire_bps() const;

 private:
  // Adapter: receives GW1 emissions, pushes them through the analytic path
  // and records tap arrival times.
  class TapAdapter final : public PacketSink {
   public:
    TapAdapter(PathModel& path, util::Rng& rng, std::vector<Seconds>& out)
        : path_(path), rng_(rng), out_(out) {}
    void on_packet(const Packet& packet, Seconds now) override;

    /// Emission time of the last packet received (0 before the first).
    [[nodiscard]] Seconds last_emitted() const { return last_emitted_; }

   private:
    PathModel& path_;
    util::Rng& rng_;
    std::vector<Seconds>& out_;
    Seconds last_emitted_ = 0;
  };

  /// Tap arrivals of packets already emitted by the current sim time. The
  /// gateway hands a packet on from its timer fire, ahead of its emission;
  /// the next fire lies after that emission, so only the newest arrival can
  /// still be in flight.
  [[nodiscard]] std::size_t emitted_arrivals() const;

  TestbedConfig config_;
  util::Rng& rng_;
  Simulation sim_;
  PathModel path_;
  std::vector<Seconds> tap_arrivals_;
  std::unique_ptr<TapAdapter> tap_;
  std::unique_ptr<PaddingGateway> gateway_;
  CbrSource source_;
  bool started_ = false;
  std::size_t cursor_ = 0;  ///< index of the next tap arrival to diff against
};

/// Convenience one-shot: build a Testbed and collect `count` PIATs.
std::vector<Seconds> collect_piats(const TestbedConfig& config,
                                   util::Rng& rng, std::size_t count);

// ------------------------------------------------- population multiplexing

/// Offered wire rate (bits/sec) of one padded flow: the timer-driven
/// gateway emits exactly one wire_bytes packet per mean timer interval,
/// payload-independent — that invariance is the whole point of link
/// padding, and it makes the load a padded flow places on shared links a
/// constant of the policy, not of the (hidden) payload rate. For a
/// payload-reactive policy (TimerPolicy::payload_reactive) the invariant is
/// deliberately broken and this value is only the DESIGNED idle pacing —
/// the realized rate may be below it (budgeted/on-off suppress dummies) or
/// ABOVE it (adaptive-gap fires faster while draining bursts); use
/// measured_wire_rate_bps instead.
[[nodiscard]] double padded_wire_rate_bps(const TestbedConfig& config);

/// MEASURED offered wire rate of one padded flow: runs a short calibration
/// capture (`piats` tap arrivals) of `config` seeded by `rng` and returns
/// the realized on-wire bandwidth. Deterministic in the RNG stream — the
/// population layer derives it from (spec seed, calibration salt) so every
/// flow agrees on the contention each padded stream offers.
[[nodiscard]] double measured_wire_rate_bps(const TestbedConfig& config,
                                            util::Rng& rng,
                                            std::size_t piats = 2000);

/// Multiplex `extra_bps` of additional traffic into every hop before the
/// tap — the analytic form of other flows sharing this flow's path. Each
/// hop's cross utilization grows by extra_bps / hop bandwidth, saturating
/// at `max_utilization` (the M/G/1 wait model requires rho < 1; a link
/// pushed past the cap stays a maximally-congested-but-stable queue).
/// Hops already configured above the cap are left unchanged.
void add_cross_load(TestbedConfig& config, double extra_bps,
                    double max_utilization = 0.95);

}  // namespace linkpad::sim
