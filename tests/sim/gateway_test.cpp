#include "sim/gateway.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/source.hpp"
#include "stats/descriptive.hpp"
#include "util/rng.hpp"

namespace linkpad::sim {
namespace {

struct WireTap : PacketSink {
  std::vector<Seconds> times;
  std::uint64_t payload = 0;
  std::uint64_t dummy = 0;
  void on_packet(const Packet& p, Seconds now) override {
    times.push_back(now);
    if (p.kind == PacketKind::kPayload) ++payload;
    if (p.kind == PacketKind::kDummy) ++dummy;
    EXPECT_EQ(p.size_bytes, 1000);  // constant wire size
  }
  [[nodiscard]] std::vector<double> piats() const {
    std::vector<double> out;
    for (std::size_t i = 1; i < times.size(); ++i) {
      out.push_back(times[i] - times[i - 1]);
    }
    return out;
  }
};

struct Harness {
  Simulation sim;
  util::Xoshiro256pp rng;
  WireTap tap;
  std::unique_ptr<CbrSource> source;
  std::unique_ptr<PaddingGateway> gateway;

  Harness(double payload_rate, const JitterParams& jitter, std::uint64_t seed,
          double tau = 10e-3)
      : rng(seed) {
    gateway = std::make_unique<PaddingGateway>(
        sim, std::make_unique<ConstantIntervalTimer>(tau), jitter, rng, tap,
        1000);
    source = std::make_unique<CbrSource>(payload_rate, 512);
    source->start(sim, *gateway, rng);
    gateway->start();
  }
};

TEST(PaddingGateway, WireRateIsConstantRegardlessOfPayloadRate) {
  // The perfect-secrecy property: 100 pps on the wire at BOTH payload rates.
  for (double rate : {10.0, 40.0}) {
    Harness h(rate, JitterParams{}, 42);
    h.sim.run_until(50.0);
    const auto wire = static_cast<double>(h.tap.times.size()) / 50.0;
    EXPECT_NEAR(wire, 100.0, 0.5) << "payload rate " << rate;
  }
}

TEST(PaddingGateway, DummyFractionComplementsPayload) {
  Harness h(40.0, JitterParams{}, 7);
  h.sim.run_until(100.0);
  const double total = static_cast<double>(h.tap.payload + h.tap.dummy);
  EXPECT_NEAR(static_cast<double>(h.tap.payload) / total, 0.4, 0.01);
  EXPECT_NEAR(static_cast<double>(h.tap.dummy) / total, 0.6, 0.01);
}

TEST(PaddingGateway, EveryPayloadPacketIsEventuallyForwarded) {
  Harness h(40.0, JitterParams{}, 8);
  h.sim.run_until(100.0);
  const auto& gs = h.gateway->stats();
  // All accepted payload is either out or still queued (queue stays small
  // since payload rate < wire rate).
  EXPECT_EQ(gs.dropped, 0u);
  EXPECT_GE(gs.payload_out + 2, gs.payload_in - 2);
  EXPECT_EQ(h.tap.payload, gs.payload_out);
}

TEST(PaddingGateway, PiatMeanEqualsTauAtBothRates) {
  // Paper Sec 4.2 assumption, validated by their Fig 4(a): padded PIAT mean
  // does not depend on the payload rate.
  std::vector<double> means;
  for (double rate : {10.0, 40.0}) {
    Harness h(rate, JitterParams{}, 11);
    h.sim.run_until(200.0);
    means.push_back(stats::mean(h.tap.piats()));
  }
  EXPECT_NEAR(means[0], 10e-3, 5e-6);
  EXPECT_NEAR(means[1], 10e-3, 5e-6);
  EXPECT_NEAR(means[0], means[1], 5e-6);
}

TEST(PaddingGateway, PiatVarianceGrowsWithPayloadRate) {
  // The leak: Var(PIAT | 40pps) > Var(PIAT | 10pps) under CIT.
  std::vector<double> vars;
  for (double rate : {10.0, 40.0}) {
    Harness h(rate, JitterParams{}, 13);
    h.sim.run_until(2000.0);
    vars.push_back(stats::sample_variance(h.tap.piats()));
  }
  EXPECT_GT(vars[1], vars[0] * 1.15);
}

TEST(PaddingGateway, PiatVarianceMatchesEffectiveModel) {
  JitterParams jp;  // defaults
  GatewayJitterModel model(jp);
  for (double rate : {10.0, 40.0}) {
    Harness h(rate, jp, 17);
    h.sim.run_until(4000.0);
    const double measured = stats::sample_variance(h.tap.piats());
    const double predicted = model.effective_piat_variance(rate * 10e-3);
    EXPECT_NEAR(measured, predicted, 0.06 * predicted) << "rate " << rate;
  }
}

TEST(PaddingGateway, QueueingDelayBoundedByTimerInterval) {
  Harness h(40.0, JitterParams{}, 19);
  h.sim.run_until(100.0);
  const auto& delay = h.gateway->stats().queueing_delay;
  ASSERT_GT(delay.count(), 0u);
  // With payload rate < wire rate the queue never builds: the wait is at
  // most ~one timer interval (plus jitter).
  EXPECT_LT(delay.max(), 10e-3 * 1.5);
  EXPECT_GT(delay.mean(), 0.0);
}

TEST(PaddingGateway, DropsWhenQueueCapacityExceeded) {
  Simulation sim;
  util::Xoshiro256pp rng(23);
  WireTap tap;
  // Timer slower than payload: 10 pps wire, 40 pps payload, tiny queue.
  PaddingGateway gw(sim, std::make_unique<ConstantIntervalTimer>(0.1),
                    JitterParams{}, rng, tap, 1000, /*queue_capacity=*/4);
  CbrSource src(40.0, 512);
  src.start(sim, gw, rng);
  gw.start();
  sim.run_until(20.0);
  EXPECT_GT(gw.stats().dropped, 0u);
}

TEST(PaddingGateway, DeterministicAcrossRuns) {
  auto run = [] {
    Harness h(40.0, JitterParams{}, 99);
    h.sim.run_until(10.0);
    return h.tap.times;
  };
  EXPECT_EQ(run(), run());
}

TEST(PaddingGateway, WireRateAccessor) {
  Simulation sim;
  util::Xoshiro256pp rng(1);
  WireTap tap;
  PaddingGateway gw(sim, std::make_unique<ConstantIntervalTimer>(10e-3),
                    JitterParams{}, rng, tap, 1000);
  EXPECT_DOUBLE_EQ(gw.wire_rate(), 100.0);
}

TEST(PaddingGateway, OverheadAccountingMatchesByHandCounts) {
  // The counting sink (WireTap) is the by-hand truth: every byte the stats
  // claim must be a packet the tap saw, split payload/dummy the same way.
  Harness h(40.0, JitterParams{}, 31);
  h.sim.run_until(50.0);
  const auto& gs = h.gateway->stats();
  EXPECT_EQ(gs.payload_bytes, gs.payload_out * 1000u);
  EXPECT_EQ(gs.padding_bytes, gs.dummy_out * 1000u);
  // Each wire packet reaches the sink from the fire that releases it, so
  // the tap and the stats agree exactly at any horizon.
  EXPECT_EQ(h.tap.payload, gs.payload_out);
  EXPECT_EQ(h.tap.dummy, gs.dummy_out);
  EXPECT_EQ(gs.suppressed_fires, 0u);  // CIT always pads
  EXPECT_EQ(gs.timer_fires, gs.payload_out + gs.dummy_out);
  // The delay percentile lies inside the observed range.
  ASSERT_GT(gs.queueing_delay.count(), 0u);
  EXPECT_GE(gs.delay_p95.value(), gs.queueing_delay.min() - 1e-12);
  EXPECT_LE(gs.delay_p95.value(), gs.queueing_delay.max() + 1e-12);
}

TEST(PaddingGateway, ZeroBudgetPolicySuppressesEveryDummy) {
  Simulation sim;
  util::Xoshiro256pp rng(37);
  WireTap tap;
  PaddingGateway gw(sim,
                    std::make_unique<TokenBucketTimer>(
                        std::make_unique<ConstantIntervalTimer>(10e-3),
                        /*dummy_budget_per_sec=*/0.0, /*burst=*/0.0),
                    JitterParams{}, rng, tap, 1000);
  CbrSource src(10.0, 512);
  src.start(sim, gw, rng);
  gw.start();
  sim.run_until(50.0);
  const auto& gs = gw.stats();
  // The wire carries ONLY payload: every empty-queue fire was suppressed.
  EXPECT_EQ(tap.dummy, 0u);
  EXPECT_EQ(gs.dummy_out, 0u);
  EXPECT_EQ(gs.padding_bytes, 0u);
  EXPECT_GT(gs.suppressed_fires, 0u);
  EXPECT_EQ(gs.timer_fires, gs.payload_out + gs.suppressed_fires);
  EXPECT_EQ(tap.payload, gs.payload_out);
  EXPECT_NEAR(static_cast<double>(tap.payload) / 50.0, 10.0, 0.5);
}

TEST(PaddingGateway, BudgetedDummiesRespectTheCapOnTheWire) {
  constexpr double kBudget = 20.0;
  constexpr double kBurst = 5.0;
  constexpr Seconds kHorizon = 50.0;
  Simulation sim;
  util::Xoshiro256pp rng(41);
  WireTap tap;
  PaddingGateway gw(sim,
                    std::make_unique<TokenBucketTimer>(
                        std::make_unique<ConstantIntervalTimer>(10e-3),
                        kBudget, kBurst),
                    JitterParams{}, rng, tap, 1000);
  CbrSource src(10.0, 512);
  src.start(sim, gw, rng);
  gw.start();
  sim.run_until(kHorizon);
  EXPECT_LE(static_cast<double>(tap.dummy), kBurst + kBudget * kHorizon);
  // And the budget is actually used, not just respected.
  EXPECT_GT(tap.dummy, 0u);
}

TEST(PaddingGateway, OnOffGatewayIsSilentWithoutPayload) {
  Simulation sim;
  util::Xoshiro256pp rng(43);
  WireTap tap;
  PaddingGateway gw(sim,
                    std::make_unique<OnOffTimer>(
                        std::make_unique<ConstantIntervalTimer>(10e-3),
                        /*hangover=*/50e-3),
                    JitterParams{}, rng, tap, 1000);
  // No source at all: an idle protected subnet must put NOTHING on the wire.
  gw.start();
  sim.run_until(10.0);
  EXPECT_TRUE(tap.times.empty());
  EXPECT_EQ(gw.stats().suppressed_fires, gw.stats().timer_fires);
  EXPECT_GT(gw.stats().timer_fires, 900u);
}

}  // namespace
}  // namespace linkpad::sim
