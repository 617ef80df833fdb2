#include "sim/source.hpp"

#include "util/check.hpp"

namespace linkpad::sim {

CbrSource::CbrSource(PacketsPerSecond rate, int packet_bytes, bool random_phase)
    : rate_(rate), packet_bytes_(packet_bytes), random_phase_(random_phase) {
  LINKPAD_EXPECTS(rate > 0.0);
  LINKPAD_EXPECTS(packet_bytes > 0);
}

void CbrSource::start(Simulation& sim, PacketSink& sink, util::Rng& rng) {
  sim_ = &sim;
  sink_ = &sink;
  const Seconds period = 1.0 / rate_;
  const Seconds phase = random_phase_ ? rng.uniform(0.0, period) : 0.0;
  sim.schedule_timer_in(phase, *this);
}

void CbrSource::on_timer(Seconds now) {
  Packet p;
  p.id = next_id_++;
  p.kind = PacketKind::kPayload;
  p.flow = FlowId::kMonitored;
  p.size_bytes = packet_bytes_;
  p.created = now;
  sink_->on_packet(p, now);
  sim_->schedule_timer_in(1.0 / rate_, *this);
}

}  // namespace linkpad::sim
