#include "sim/gateway.hpp"

#include "util/check.hpp"

namespace linkpad::sim {

PaddingGateway::PaddingGateway(Simulation& sim,
                               std::unique_ptr<TimerPolicy> policy,
                               const JitterParams& jitter, util::Rng& rng,
                               PacketSink& downstream, int wire_bytes,
                               std::size_t queue_capacity)
    : sim_(sim),
      policy_(std::move(policy)),
      jitter_(jitter),
      rng_(rng),
      downstream_(downstream),
      wire_bytes_(wire_bytes),
      queue_capacity_(queue_capacity) {
  LINKPAD_EXPECTS(policy_ != nullptr);
  LINKPAD_EXPECTS(wire_bytes > 0);
  LINKPAD_EXPECTS(queue_capacity > 0);
}

void PaddingGateway::on_packet(const Packet& packet, Seconds /*now*/) {
  ++stats_.payload_in;
  ++arrivals_since_fire_;  // each arrival raises one NIC interrupt
  if (queue_.size() >= queue_capacity_) {
    ++stats_.dropped;
    return;
  }
  queue_.push_back(packet);
}

void PaddingGateway::start() {
  next_designed_fire_ = sim_.now() + policy_->next_interval(rng_);
  sim_.schedule_timer_at(next_designed_fire_, *this);
}

PacketsPerSecond PaddingGateway::wire_rate() const {
  return 1.0 / policy_->mean_interval();
}

void PaddingGateway::on_timer(Seconds /*now*/) {
  ++stats_.timer_fires;

  // The interrupt routine runs after a random scheduling delay; payload
  // arrivals since the previous fire each contributed a blocking term.
  const Seconds delay = jitter_.emission_delay(rng_, arrivals_since_fire_);

  GatewayFeedback feedback;
  feedback.now = sim_.now();
  feedback.arrivals_since_fire = arrivals_since_fire_;
  arrivals_since_fire_ = 0;

  Packet wire;
  wire.flow = FlowId::kMonitored;
  wire.size_bytes = wire_bytes_;  // constant wire size hides payload length
  bool emit = true;
  if (!queue_.empty()) {
    const Packet payload = queue_.front();
    queue_.pop_front();
    wire.kind = PacketKind::kPayload;
    wire.created = payload.created;
    const Seconds waited = sim_.now() - payload.created;
    stats_.queueing_delay.add(waited);
    stats_.delay_p95.add(waited);
    ++stats_.payload_out;
    stats_.payload_bytes += static_cast<std::uint64_t>(wire_bytes_);
    feedback.emitted_payload = true;
  } else if (policy_->spend_dummy(feedback)) {
    wire.kind = PacketKind::kDummy;
    wire.created = sim_.now();
    ++stats_.dummy_out;
    stats_.padding_bytes += static_cast<std::uint64_t>(wire_bytes_);
    feedback.emitted_dummy = true;
  } else {
    // The queue-feedback seam in action: the policy declined to pad, so
    // this interrupt puts nothing on the wire.
    ++stats_.suppressed_fires;
    emit = false;
  }
  feedback.queue_depth = queue_.size();

  const Seconds emit_time = sim_.now() + delay;

  // Absolute (drift-free) scheduling of the next designed interrupt; the
  // policy sees the post-emission link state before the draw.
  policy_->observe(feedback);
  next_designed_fire_ += policy_->next_interval(rng_);
  // A grossly delayed interrupt cannot overtake the next one on real
  // hardware; the kernel coalesces. Model: push the schedule if needed.
  if (next_designed_fire_ <= emit_time) next_designed_fire_ = emit_time + 1e-9;
  sim_.schedule_timer_at(next_designed_fire_, *this);

  // Hand the packet downstream now, stamped with its emission time (the
  // PacketSink contract): no event is spent on it. The next fire lies after
  // emit_time, so with CBR payload no RNG draw falls between the fire and
  // the emission: the downstream draws come in the same order as they
  // would from an event at emit_time.
  if (emit) {
    wire.id = next_wire_id_++;
    wire.emitted = emit_time;
    downstream_.on_packet(wire, emit_time);
  }
}

}  // namespace linkpad::sim
