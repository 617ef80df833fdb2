#include "sim/source.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/scheduler.hpp"
#include "sim/testbed.hpp"
#include "stats/descriptive.hpp"
#include "util/rng.hpp"

namespace linkpad::sim {
namespace {

struct Collector : PacketSink {
  std::vector<Seconds> times;
  std::vector<PacketId> ids;
  void on_packet(const Packet& p, Seconds now) override {
    times.push_back(now);
    ids.push_back(p.id);
    EXPECT_EQ(p.kind, PacketKind::kPayload);
    EXPECT_EQ(p.flow, FlowId::kMonitored);
  }
};

TEST(CbrSource, EmitsAtExactRate) {
  Simulation sim;
  util::Xoshiro256pp rng(1);
  CbrSource src(40.0, 512, /*random_phase=*/false);
  Collector sink;
  src.start(sim, sink, rng);
  sim.run_until(10.0);
  // 40 pps for 10 s, first packet at t=0 (the t=10.0 packet may fall on
  // either side of the boundary due to accumulated floating-point steps).
  EXPECT_GE(sink.times.size(), 400u);
  EXPECT_LE(sink.times.size(), 401u);
  for (std::size_t i = 1; i < sink.times.size(); ++i) {
    EXPECT_NEAR(sink.times[i] - sink.times[i - 1], 0.025, 1e-9);
  }
}

TEST(CbrSource, RandomPhaseStaysWithinOnePeriod) {
  Simulation sim;
  util::Xoshiro256pp rng(2);
  CbrSource src(10.0, 512);
  Collector sink;
  src.start(sim, sink, rng);
  sim.run_until(1.0);
  ASSERT_FALSE(sink.times.empty());
  EXPECT_LT(sink.times.front(), 0.1);
}

TEST(CbrSource, IdsAreSequential) {
  Simulation sim;
  util::Xoshiro256pp rng(3);
  CbrSource src(100.0, 100, false);
  Collector sink;
  src.start(sim, sink, rng);
  sim.run_until(0.5);
  for (std::size_t i = 0; i < sink.ids.size(); ++i) {
    EXPECT_EQ(sink.ids[i], i);
  }
}

TEST(PoissonSource, LongRunRateConverges) {
  Simulation sim;
  util::Xoshiro256pp rng(4);
  PoissonSource src(50.0, 512);
  Collector sink;
  src.start(sim, sink, rng);
  sim.run_until(200.0);
  const double rate = static_cast<double>(sink.times.size()) / 200.0;
  EXPECT_NEAR(rate, 50.0, 1.5);
}

TEST(PoissonSource, InterArrivalsAreExponential) {
  Simulation sim;
  util::Xoshiro256pp rng(5);
  PoissonSource src(100.0, 512);
  Collector sink;
  src.start(sim, sink, rng);
  sim.run_until(300.0);
  std::vector<double> gaps;
  for (std::size_t i = 1; i < sink.times.size(); ++i) {
    gaps.push_back(sink.times[i] - sink.times[i - 1]);
  }
  // Exponential: mean = std-dev = 1/rate.
  EXPECT_NEAR(stats::mean(gaps), 0.01, 5e-4);
  EXPECT_NEAR(stats::sample_stddev(gaps), 0.01, 7e-4);
}

TEST(Sources, FactoriesProduceCorrectRates) {
  TestbedConfig cfg;
  cfg.payload_rate = 10.0;
  const auto cbr = make_payload_source(cfg);
  EXPECT_DOUBLE_EQ(cbr->mean_rate(), 10.0);
  EXPECT_NE(dynamic_cast<CbrSource*>(cbr.get()), nullptr);
  cfg.payload_kind = PayloadKind::kPoisson;
  cfg.payload_rate = 40.0;
  const auto poisson = make_payload_source(cfg);
  EXPECT_DOUBLE_EQ(poisson->mean_rate(), 40.0);
  EXPECT_NE(dynamic_cast<PoissonSource*>(poisson.get()), nullptr);
}

}  // namespace
}  // namespace linkpad::sim
