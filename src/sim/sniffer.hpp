// The adversary's capture device (the paper uses an Agilent J6841A network
// analyzer). Records arrival timestamps of the monitored flow at its tap
// point; the packet inter-arrival times (PIATs) that every feature
// statistic is computed from are their successive differences.
#pragma once

#include <vector>

#include "sim/packet.hpp"
#include "util/types.hpp"

namespace linkpad::sim {

/// Terminal timestamp recorder of the monitored flow.
class Sniffer final : public PacketSink {
 public:
  void on_packet(const Packet& packet, Seconds now) override {
    if (packet.flow == FlowId::kMonitored) arrivals_.push_back(now);
  }

  /// Raw arrival times of the monitored flow.
  [[nodiscard]] const std::vector<Seconds>& arrival_times() const {
    return arrivals_;
  }

  [[nodiscard]] std::size_t captured() const { return arrivals_.size(); }

 private:
  std::vector<Seconds> arrivals_;
};

}  // namespace linkpad::sim
