// Packet-level router tests, including the KEY validation of this repo's
// simulation shortcut: the analytic M/G/1 stationary-wait sampler
// (Mg1WaitSampler) must agree with the fully simulated packet-level router
// for the monitored stream's queueing delays.
#include "sim/router.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/mg1.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace linkpad::sim {
namespace {

struct Catcher : PacketSink {
  std::vector<Seconds> times;
  std::vector<PacketId> ids;
  void on_packet(const Packet& p, Seconds now) override {
    times.push_back(now);
    ids.push_back(p.id);
  }
};

Packet monitored_packet(PacketId id, int bytes = 1000) {
  Packet p;
  p.id = id;
  p.kind = PacketKind::kDummy;
  p.flow = FlowId::kMonitored;
  p.size_bytes = bytes;
  return p;
}

TEST(Router, ForwardsMonitoredTrafficInOrder) {
  Simulation sim;
  Catcher out;
  Router router(sim, "r", 1e9, out);
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(i * 0.001, [&router, &sim, i] {
      router.on_packet(monitored_packet(i), sim.now());
    });
  }
  sim.run();
  ASSERT_EQ(out.ids.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(out.ids[i], i);
}

TEST(Router, ServiceTimeMatchesBandwidth) {
  Simulation sim;
  Catcher out;
  Router router(sim, "r", 1e8, out);  // 100 Mbit/s
  sim.schedule_at(1.0, [&] { router.on_packet(monitored_packet(0, 1250), sim.now()); });
  sim.run();
  // 1250 B = 10000 bits at 1e8 bps = 100 us.
  ASSERT_EQ(out.times.size(), 1u);
  EXPECT_NEAR(out.times[0], 1.0 + 100e-6, 1e-12);
}

TEST(Router, CrossTrafficIsServedButNotForwarded) {
  Simulation sim;
  Catcher out;
  Router router(sim, "r", 1e9, out);
  Packet cross;
  cross.flow = FlowId::kCrossHop;
  cross.kind = PacketKind::kCross;
  cross.size_bytes = 500;
  sim.schedule_at(0.0, [&] { router.on_packet(cross, sim.now()); });
  sim.run();
  EXPECT_EQ(out.times.size(), 0u);
  EXPECT_EQ(router.serviced(), 1u);
}

TEST(Router, QueueCapacityDropsExcess) {
  Simulation sim;
  Catcher out;
  Router router(sim, "r", 1e3, out, /*queue_capacity=*/2);  // very slow link
  sim.schedule_at(0.0, [&] {
    for (int i = 0; i < 10; ++i) router.on_packet(monitored_packet(i), sim.now());
  });
  sim.run_until(1.0);
  EXPECT_GT(router.dropped(), 0u);
}

TEST(Router, BusyLinkDelaysSecondPacket) {
  Simulation sim;
  Catcher out;
  Router router(sim, "r", 1e8, out);
  sim.schedule_at(0.0, [&] {
    router.on_packet(monitored_packet(0, 1250), sim.now());
    router.on_packet(monitored_packet(1, 1250), sim.now());
  });
  sim.run();
  ASSERT_EQ(out.times.size(), 2u);
  EXPECT_NEAR(out.times[1] - out.times[0], 100e-6, 1e-12);
}

// ---- The validation experiment: analytic PK sampler vs packet-level DES --

struct WaitProbe {
  double mean = 0.0;
  double variance = 0.0;
};

WaitProbe measure_packet_level_wait(double rho, double bandwidth,
                                    int cross_bytes, std::uint64_t seed) {
  Simulation sim;
  util::Xoshiro256pp rng(seed);
  Catcher out;
  Router router(sim, "r", bandwidth, out);

  const double cross_service = cross_bytes * 8.0 / bandwidth;
  const double cross_rate = rho / cross_service;
  CrossTrafficProcess cross(sim, router, cross_rate, cross_bytes, rng);
  cross.start();

  // Monitored probes arrive every 10 ms (like the padded stream).
  const int probes = 40000;
  for (int i = 0; i < probes; ++i) {
    sim.schedule_at(0.5 + i * 0.01, [&router, &sim, i] {
      router.on_packet(monitored_packet(i), sim.now());
    });
  }
  sim.run_until(0.5 + probes * 0.01 + 1.0);

  WaitProbe probe;
  probe.mean = router.monitored_wait().mean();
  probe.variance = router.monitored_wait().variance();
  return probe;
}

class AnalyticVsPacketLevel : public ::testing::TestWithParam<double> {};

TEST_P(AnalyticVsPacketLevel, StationaryWaitMomentsAgree) {
  const double rho = GetParam();
  const double bandwidth = 1e9;
  const int cross_bytes = 1000;

  const auto measured =
      measure_packet_level_wait(rho, bandwidth, cross_bytes, 77);
  Mg1WaitSampler analytic(rho, cross_bytes * 8.0 / bandwidth);

  EXPECT_NEAR(measured.mean, analytic.mean_wait(),
              0.05 * analytic.mean_wait() + 3e-8)
      << "rho " << rho;
  EXPECT_NEAR(measured.variance, analytic.wait_variance(),
              0.10 * analytic.wait_variance() + 1e-14)
      << "rho " << rho;
}

INSTANTIATE_TEST_SUITE_P(Utilizations, AnalyticVsPacketLevel,
                         ::testing::Values(0.1, 0.3, 0.5));

}  // namespace
}  // namespace linkpad::sim
