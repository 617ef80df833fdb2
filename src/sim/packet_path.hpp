// Fully packet-level end-to-end testbed: every cross-traffic packet is a
// DES event through real Router entities — no analytic M/G/1 shortcut.
//
// This is the fidelity reference for sim::Testbed (which uses the
// Pollaczek–Khinchine hop channels): `bench/abl_engine_fidelity` runs the
// identical experiment on both engines and compares PIAT moments and
// detection rates. Use this engine directly when studying effects the
// analytic channel excludes by construction (cross-traffic burstiness,
// inter-hop correlation, padded-stream self-queueing).
//
// The gateway hands wire packets on from its timer fire, ahead of their
// emission time (see PacketSink). Routers read the simulation clock, so
// this engine feeds its first hop through a ScheduledDelivery: each wire
// packet becomes one event at its emission time. With no hops the two
// engines produce bit-identical PIATs.
#pragma once

#include <memory>
#include <vector>

#include "sim/gateway.hpp"
#include "sim/hop.hpp"
#include "sim/router.hpp"
#include "sim/sniffer.hpp"
#include "sim/source.hpp"
#include "sim/testbed.hpp"
#include "util/rng.hpp"

namespace linkpad::sim {

/// Sink adapter that turns a packet handed on ahead of its time into an
/// event at that time: each packet reaches `next` from a `schedule_at(now)`
/// closure, so `next` may read `Simulation::now()` (see PacketSink).
class ScheduledDelivery final : public PacketSink {
 public:
  ScheduledDelivery(Simulation& sim, PacketSink& next)
      : sim_(sim), next_(next) {}
  // Pending closures hold `this`.
  ScheduledDelivery(const ScheduledDelivery&) = delete;
  ScheduledDelivery& operator=(const ScheduledDelivery&) = delete;

  void on_packet(const Packet& packet, Seconds now) override {
    sim_.schedule_at(now,
                     [this, packet, now] { next_.on_packet(packet, now); });
  }

 private:
  Simulation& sim_;
  PacketSink& next_;
};

/// Packet-level counterpart of sim::Testbed; accepts the same config.
/// Each HopConfig becomes a Router entity with its own Poisson
/// CrossTrafficProcess at rate ρ·C/(8·cross_bytes).
class PacketLevelTestbed {
 public:
  PacketLevelTestbed(const TestbedConfig& config, util::Rng& rng);

  /// Run until `count` post-warmup PIATs are captured at the tap
  /// (the sniffer sits after the last hop).
  [[nodiscard]] std::vector<Seconds> collect_piats(std::size_t count);

  [[nodiscard]] const GatewayStats& gateway_stats() const {
    return gateway_->stats();
  }
  [[nodiscard]] const Router& router(std::size_t i) const {
    return *routers_[i];
  }
  [[nodiscard]] std::size_t hop_count() const { return routers_.size(); }
  [[nodiscard]] std::uint64_t events_processed() const {
    return sim_.events_processed();
  }

 private:
  TestbedConfig config_;
  util::Rng& rng_;
  Simulation sim_;
  Sniffer sniffer_;
  // Entities owned in wiring order; routers_[0] is nearest the gateway.
  std::vector<std::unique_ptr<Router>> routers_;
  std::vector<std::unique_ptr<CrossTrafficProcess>> cross_;
  std::unique_ptr<ScheduledDelivery> delivery_;  ///< gateway -> first hop
  std::unique_ptr<PaddingGateway> gateway_;
  std::unique_ptr<TrafficSource> source_;
  bool started_ = false;
  std::size_t consumed_arrivals_ = 1;  // +1: PIATs are diffs
};

}  // namespace linkpad::sim
