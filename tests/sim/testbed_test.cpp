#include "sim/testbed.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "stats/descriptive.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace linkpad::sim {
namespace {

TestbedConfig base_config() {
  TestbedConfig cfg;
  cfg.policy = std::make_shared<ConstantIntervalTimer>(10e-3);
  cfg.payload_rate = 40.0;
  return cfg;
}

TEST(Testbed, CollectsRequestedPiatCount) {
  auto cfg = base_config();
  util::Xoshiro256pp rng(1);
  Testbed bed(cfg, rng);
  const auto piats = bed.collect_piats(500);
  EXPECT_EQ(piats.size(), 500u);
}

TEST(Testbed, PiatMeanNearTau) {
  auto cfg = base_config();
  util::Xoshiro256pp rng(2);
  const auto piats = collect_piats(cfg, rng, 5000);
  EXPECT_NEAR(stats::mean(piats), 10e-3, 1e-5);
}

TEST(Testbed, DeterministicForSameSeed) {
  auto cfg = base_config();
  util::Xoshiro256pp a(7), b(7);
  EXPECT_EQ(collect_piats(cfg, a, 300), collect_piats(cfg, b, 300));
}

TEST(Testbed, DifferentSeedsDiffer) {
  auto cfg = base_config();
  util::Xoshiro256pp a(7), b(8);
  EXPECT_NE(collect_piats(cfg, a, 300), collect_piats(cfg, b, 300));
}

TEST(Testbed, RepeatedCollectsContinueTheStream) {
  auto cfg = base_config();
  util::Xoshiro256pp rng(9);
  Testbed bed(cfg, rng);
  const auto first = bed.collect_piats(200);
  const auto second = bed.collect_piats(200);
  EXPECT_EQ(second.size(), 200u);
  EXPECT_NE(first, second);  // time moved on
}

TEST(Testbed, HopsAddNetworkNoise) {
  auto clean_cfg = base_config();
  util::Xoshiro256pp rng1(11);
  const auto clean = collect_piats(clean_cfg, rng1, 20000);

  auto noisy_cfg = base_config();
  HopConfig hop;
  hop.bandwidth_bps = 1e9;
  hop.cross_utilization = 0.5;
  hop.cross_packet_bytes = 1000;
  noisy_cfg.hops_before_tap = {hop};
  util::Xoshiro256pp rng2(11);
  const auto noisy = collect_piats(noisy_cfg, rng2, 20000);

  EXPECT_GT(stats::sample_variance(noisy), stats::sample_variance(clean) * 1.3);
  // Network noise cannot shift the mean rate.
  EXPECT_NEAR(stats::mean(noisy), stats::mean(clean), 1e-5);
}

TEST(Testbed, VitIncreasesVarianceNotMean) {
  auto cit_cfg = base_config();
  util::Xoshiro256pp rng1(13);
  const auto cit = collect_piats(cit_cfg, rng1, 20000);

  auto vit_cfg = base_config();
  vit_cfg.policy = std::make_shared<NormalIntervalTimer>(10e-3, 500e-6);
  util::Xoshiro256pp rng2(13);
  const auto vit = collect_piats(vit_cfg, rng2, 20000);

  EXPECT_NEAR(stats::mean(vit), stats::mean(cit), 1e-4);
  EXPECT_GT(stats::sample_variance(vit), 100.0 * stats::sample_variance(cit));
}

TEST(Testbed, PoissonPayloadWorks) {
  auto cfg = base_config();
  cfg.payload_kind = PayloadKind::kPoisson;
  util::Xoshiro256pp rng(15);
  const auto piats = collect_piats(cfg, rng, 2000);
  EXPECT_EQ(piats.size(), 2000u);
  EXPECT_NEAR(stats::mean(piats), 10e-3, 5e-5);
}

TEST(Testbed, GatewayStatsAccessible) {
  auto cfg = base_config();
  util::Xoshiro256pp rng(17);
  Testbed bed(cfg, rng);
  bed.collect_piats(1000);
  const auto& gs = bed.gateway_stats();
  EXPECT_GT(gs.timer_fires, 1000u);
  EXPECT_GT(gs.payload_out, 0u);
  EXPECT_GT(gs.dummy_out, 0u);
}

// The analytic engine spends exactly one event per timer fire and one per
// payload arrival: wire packets ride the gateway fire that releases them and
// the analytic hop adds none. A per-packet event coming back breaks this.
TEST(Testbed, EventsAreTimerFiresPlusPayloadArrivals) {
  const std::vector<std::shared_ptr<const TimerPolicy>> policies = {
      std::make_shared<ConstantIntervalTimer>(10e-3),
      std::make_shared<NormalIntervalTimer>(10e-3, 500e-6)};
  HopConfig hop;
  hop.cross_utilization = 0.3;
  for (const auto& policy : policies) {
    for (double rate : {10.0, 40.0}) {
      auto cfg = base_config();
      cfg.policy = policy;
      cfg.payload_rate = rate;
      cfg.hops_before_tap = {hop};
      util::Xoshiro256pp rng(21);
      Testbed bed(cfg, rng);
      (void)bed.collect_piats(2000);
      const auto& gs = bed.gateway_stats();
      EXPECT_EQ(bed.simulation().events_processed(),
                gs.timer_fires + gs.payload_in)
          << policy->name() << " at " << rate << " pps";
    }
  }
}

TEST(Testbed, MissingPolicyRejected) {
  TestbedConfig cfg;
  cfg.policy = nullptr;
  util::Xoshiro256pp rng(19);
  EXPECT_THROW(Testbed(cfg, rng), linkpad::ContractViolation);
}

TEST(PopulationMultiplex, PaddedWireRateIsPolicyTimesWireBytes) {
  auto cfg = base_config();  // tau = 10 ms, wire_bytes = 1000
  EXPECT_DOUBLE_EQ(padded_wire_rate_bps(cfg), 8.0 * 1000.0 / 10e-3);
  // Payload rate is irrelevant: the timer paces the wire.
  cfg.payload_rate = 10.0;
  EXPECT_DOUBLE_EQ(padded_wire_rate_bps(cfg), 8.0 * 1000.0 / 10e-3);
  cfg.wire_bytes = 500;
  EXPECT_DOUBLE_EQ(padded_wire_rate_bps(cfg), 8.0 * 500.0 / 10e-3);
}

TEST(PopulationMultiplex, CrossLoadRaisesEveryHopAndClamps) {
  auto cfg = base_config();
  HopConfig fast;
  fast.bandwidth_bps = 1e9;
  fast.cross_utilization = 0.2;
  HopConfig slow;
  slow.bandwidth_bps = 10e6;
  slow.cross_utilization = 0.1;
  HopConfig hot;  // already configured above the cap: left unchanged
  hot.bandwidth_bps = 1e9;
  hot.cross_utilization = 0.97;
  cfg.hops_before_tap = {fast, slow, hot};

  add_cross_load(cfg, /*extra_bps=*/100e6, /*max_utilization=*/0.95);
  EXPECT_DOUBLE_EQ(cfg.hops_before_tap[0].cross_utilization, 0.3);
  EXPECT_DOUBLE_EQ(cfg.hops_before_tap[1].cross_utilization, 0.95);  // clamp
  EXPECT_DOUBLE_EQ(cfg.hops_before_tap[2].cross_utilization, 0.97);  // kept

  // Zero extra load is the identity, and a loaded config still simulates
  // (the clamp keeps every M/G/1 hop strictly stable).
  add_cross_load(cfg, 0.0);
  EXPECT_DOUBLE_EQ(cfg.hops_before_tap[0].cross_utilization, 0.3);
  util::Xoshiro256pp rng(23);
  EXPECT_EQ(collect_piats(cfg, rng, 200).size(), 200u);

  EXPECT_THROW(add_cross_load(cfg, -1.0), linkpad::ContractViolation);
  EXPECT_THROW(add_cross_load(cfg, 1.0, 1.5), linkpad::ContractViolation);
}

}  // namespace
}  // namespace linkpad::sim
