// Packet record shared by the DES entities.
//
// Per the paper's threat model all packets on the wire have CONSTANT size and
// encrypted payload; the adversary cannot tell payload from dummy (Sec 3.2,
// remark 1/3). The `kind` field exists only for instrumentation on our side
// of the experiment (accounting, invariant checks) — no classifier input may
// depend on it.
#pragma once

#include "util/types.hpp"

namespace linkpad::sim {

/// What a packet carries. Invisible to the adversary.
enum class PacketKind : unsigned char {
  kPayload,  ///< real user packet released by the padding timer
  kDummy,    ///< cover packet injected when the queue was empty
  kCross,    ///< third-party cross traffic at a router
};

/// Which stream a packet belongs to. The adversary can see this (tunnel
/// endpoints are plaintext in the outer IP header), which is exactly why he
/// can isolate the padded GW1→GW2 stream for timing analysis.
enum class FlowId : unsigned char {
  kMonitored,  ///< the padded gateway-to-gateway stream
  kCrossHop,   ///< cross traffic local to some router hop
};

struct Packet {
  PacketId id = 0;
  PacketKind kind = PacketKind::kDummy;
  FlowId flow = FlowId::kMonitored;
  int size_bytes = 0;
  Seconds created = 0;    ///< when the payload entered GW1 (payload only)
  Seconds emitted = 0;    ///< when GW1 put it on the wire
};

/// Anything that accepts packets at a simulated time.
///
/// `now` is the packet's arrival time at the sink. It may lie AHEAD of
/// `Simulation::now()`: the padding gateway hands each wire packet on from
/// the timer fire that releases it, stamped with its emission time, rather
/// than spending an event to wait for that instant. A sink that only
/// computes from `now` (the analytic hop path, a sniffer) may take packets
/// this way; a sink that reads the simulation clock or schedules relative
/// to it (a packet-level `Router`) must be fed through a
/// `ScheduledDelivery` (sim/packet_path.hpp), which delivers each packet
/// at its time.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void on_packet(const Packet& packet, Seconds now) = 0;
};

}  // namespace linkpad::sim
