// Traffic sources feeding the sender gateway.
//
// The paper's payload has "two rate states: 10 pps and 40 pps"; we default to
// CBR (constant bit rate) like their traffic generator, and also provide a
// Poisson source for robustness checks — Theorems 1–3 only depend on the
// payload through the arrival counts per timer interval, so the
// detection-rate shape should survive a change of payload process.
//
// Sources are periodic entities, so they ride the scheduler's TimerTask
// fast path: one pending timer entry per source, no closure per packet.
#pragma once

#include <string>

#include "sim/packet.hpp"
#include "sim/scheduler.hpp"
#include "stats/distributions.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace linkpad::sim {

/// A DES entity that generates payload packets into a sink.
class TrafficSource {
 public:
  virtual ~TrafficSource() = default;

  /// Begin generating at the simulation's current time. The source keeps
  /// references to all three arguments until the simulation ends.
  virtual void start(Simulation& sim, PacketSink& sink, util::Rng& rng) = 0;

  /// Long-run average rate in packets/second.
  [[nodiscard]] virtual PacketsPerSecond mean_rate() const = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Constant bit rate: one packet every 1/rate seconds, with an optional
/// random phase so different trials do not align with the padding timer.
class CbrSource final : public TrafficSource, public TimerTask {
 public:
  CbrSource(PacketsPerSecond rate, int packet_bytes, bool random_phase = true);

  void start(Simulation& sim, PacketSink& sink, util::Rng& rng) override;
  void on_timer(Seconds now) override;
  [[nodiscard]] PacketsPerSecond mean_rate() const override { return rate_; }
  [[nodiscard]] std::string name() const override;

 private:
  PacketsPerSecond rate_;
  int packet_bytes_;
  bool random_phase_;
  PacketId next_id_ = 0;
  Simulation* sim_ = nullptr;
  PacketSink* sink_ = nullptr;
};

/// Poisson arrivals at a given mean rate.
class PoissonSource final : public TrafficSource, public TimerTask {
 public:
  PoissonSource(PacketsPerSecond rate, int packet_bytes);

  void start(Simulation& sim, PacketSink& sink, util::Rng& rng) override;
  void on_timer(Seconds now) override;
  [[nodiscard]] PacketsPerSecond mean_rate() const override { return rate_; }
  [[nodiscard]] std::string name() const override;

 private:
  void schedule_next();

  PacketsPerSecond rate_;
  int packet_bytes_;
  PacketId next_id_ = 0;
  Simulation* sim_ = nullptr;
  PacketSink* sink_ = nullptr;
  util::Rng* rng_ = nullptr;
};

}  // namespace linkpad::sim
