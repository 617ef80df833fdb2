// The payload source feeding the sender gateway.
//
// The paper's payload has "two rate states: 10 pps and 40 pps", generated
// at a constant bit rate (CBR) like their traffic generator. Theorems 1–3
// depend on the payload only through the arrival counts per timer interval.
//
// The source is a periodic entity, so it rides the scheduler's TimerTask
// fast path: one pending timer entry, no closure per packet.
#pragma once

#include "sim/packet.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace linkpad::sim {

/// Constant bit rate: one packet every 1/rate seconds, with an optional
/// random phase so different trials do not align with the padding timer.
class CbrSource final : public TimerTask {
 public:
  CbrSource(PacketsPerSecond rate, int packet_bytes, bool random_phase = true);

  /// Begin generating at the simulation's current time. The source keeps
  /// references to `sim` and `sink` until the simulation ends; `rng` draws
  /// only the phase.
  void start(Simulation& sim, PacketSink& sink, util::Rng& rng);
  void on_timer(Seconds now) override;

 private:
  PacketsPerSecond rate_;
  int packet_bytes_;
  bool random_phase_;
  PacketId next_id_ = 0;
  Simulation* sim_ = nullptr;
  PacketSink* sink_ = nullptr;
};

}  // namespace linkpad::sim
