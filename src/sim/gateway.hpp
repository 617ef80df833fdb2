// The padding gateway GW1 (paper Sec 3.2).
//
// Behaviour exactly as specified: payload packets from the protected subnet
// are queued; an interrupt-driven timer fires at designed instants
// S_k = S_{k−1} + T_k (absolute scheduling, so CIT does not drift); at each
// fire the gateway emits the head-of-queue payload packet, or a dummy if the
// queue is empty. The *actual* emission happens at S_k + δ_k where δ_k comes
// from the GatewayJitterModel and depends on how many payload packets
// arrived since the previous interrupt — the leak under study.
//
// All packets leave with the same constant `wire_bytes` size (Sec 3.2
// remark 3): the adversary learns nothing from sizes.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>

#include "sim/jitter.hpp"
#include "sim/packet.hpp"
#include "sim/scheduler.hpp"
#include "sim/timer_policy.hpp"
#include "stats/descriptive.hpp"
#include "stats/quantile_sketch.hpp"
#include "util/rng.hpp"

namespace linkpad::sim {

/// Operational counters exposed for invariant checks, QoS reporting and the
/// defense frontier's overhead accounting (DESIGN.md §2.8).
struct GatewayStats {
  std::uint64_t payload_in = 0;       ///< payload packets accepted
  std::uint64_t payload_out = 0;      ///< payload packets emitted
  std::uint64_t dummy_out = 0;        ///< dummy packets emitted
  std::uint64_t dropped = 0;          ///< payload drops (queue overflow)
  std::uint64_t timer_fires = 0;      ///< interrupts processed
  /// Fires that emitted NOTHING: empty queue and the policy declined a
  /// dummy (on/off padding off-phase, exhausted token bucket).
  std::uint64_t suppressed_fires = 0;
  std::uint64_t payload_bytes = 0;    ///< wire bytes carrying payload
  std::uint64_t padding_bytes = 0;    ///< wire bytes carrying dummies
  stats::RunningStats queueing_delay; ///< payload wait in GW1 (QoS metric)
  /// Streaming percentiles of the payload queueing delay (P², ~1% sketch
  /// accuracy) — the latency half of the overhead/detectability frontier.
  stats::P2Quantile delay_p50{0.5};
  stats::P2Quantile delay_p95{0.95};
  stats::P2Quantile delay_p99{0.99};
};

/// Sender-side padding gateway. The interrupt timer rides the scheduler's
/// TimerTask fast path: one pending heap entry per designed fire, no closure.
/// Each fire hands its wire packet to `downstream` before returning, stamped
/// with the emission time S_k + δ_k (see PacketSink): one event per fire.
class PaddingGateway final : public PacketSink, public TimerTask {
 public:
  /// `queue_capacity` bounds the payload queue (packets beyond it drop, as a
  /// real box would); the paper's rates (≤ 40 pps payload vs 100 pps timer)
  /// keep the queue nearly empty.
  PaddingGateway(Simulation& sim, std::unique_ptr<TimerPolicy> policy,
                 const JitterParams& jitter, util::Rng& rng,
                 PacketSink& downstream, int wire_bytes = 1000,
                 std::size_t queue_capacity = 4096);

  /// Payload ingress (TrafficSource sink interface).
  void on_packet(const Packet& packet, Seconds now) override;

  /// Designed timer interrupt S_k (TimerTask fast path).
  void on_timer(Seconds now) override;

  /// Arm the timer; first designed fire after one interval from now.
  void start();

  [[nodiscard]] const GatewayStats& stats() const { return stats_; }
  [[nodiscard]] const TimerPolicy& policy() const { return *policy_; }

  /// DESIGNED wire rate = 1 / E[T]. For the paper's policies this is the
  /// constant emitted rate regardless of payload — the perfect-secrecy
  /// property padding is built on. For payload-reactive policies the
  /// realized rate can sit on either side of it; measure it instead
  /// (Testbed::measured_wire_bps).
  [[nodiscard]] PacketsPerSecond wire_rate() const;

 private:
  Simulation& sim_;
  std::unique_ptr<TimerPolicy> policy_;
  GatewayJitterModel jitter_;
  util::Rng& rng_;
  PacketSink& downstream_;
  int wire_bytes_;
  std::size_t queue_capacity_;

  std::deque<Packet> queue_;
  unsigned arrivals_since_fire_ = 0;
  Seconds next_designed_fire_ = 0;
  PacketId next_wire_id_ = 0;
  GatewayStats stats_;
};

}  // namespace linkpad::sim
