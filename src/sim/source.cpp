#include "sim/source.hpp"

#include <sstream>

#include "util/check.hpp"

namespace linkpad::sim {

// -------------------------------------------------------------- CbrSource

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

std::string CbrSource::name() const {
  std::ostringstream out;
  out << "CBR(" << rate_ << "pps)";
  return out.str();
}

// ---------------------------------------------------------- PoissonSource

PoissonSource::PoissonSource(PacketsPerSecond rate, int packet_bytes)
    : rate_(rate), packet_bytes_(packet_bytes) {
  LINKPAD_EXPECTS(rate > 0.0);
  LINKPAD_EXPECTS(packet_bytes > 0);
}

void PoissonSource::start(Simulation& sim, PacketSink& sink, util::Rng& rng) {
  sim_ = &sim;
  sink_ = &sink;
  rng_ = &rng;
  schedule_next();
}

void PoissonSource::schedule_next() {
  const Seconds gap = stats::Exponential(1.0 / rate_).sample(*rng_);
  sim_->schedule_timer_in(gap, *this);
}

void PoissonSource::on_timer(Seconds now) {
  Packet p;
  p.id = next_id_++;
  p.kind = PacketKind::kPayload;
  p.flow = FlowId::kMonitored;
  p.size_bytes = packet_bytes_;
  p.created = now;
  sink_->on_packet(p, now);
  schedule_next();
}

std::string PoissonSource::name() const {
  std::ostringstream out;
  out << "Poisson(" << rate_ << "pps)";
  return out.str();
}

}  // namespace linkpad::sim
