// Packet-level end-to-end testbed tests, including the cross-engine
// fidelity check: the analytic (PK-channel) Testbed and the packet-level
// testbed must produce statistically indistinguishable PIAT streams.
#include "sim/packet_path.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "stats/descriptive.hpp"
#include "util/rng.hpp"

namespace linkpad::sim {
namespace {

TestbedConfig config_with_hop(double rho) {
  TestbedConfig cfg;
  cfg.policy = std::make_shared<ConstantIntervalTimer>(10e-3);
  cfg.payload_rate = 40.0;
  if (rho >= 0.0) {
    HopConfig hop;
    hop.name = "hop";
    hop.bandwidth_bps = 500e6;
    hop.cross_utilization = rho;
    hop.cross_packet_bytes = 1500;
    cfg.hops_before_tap = {hop};
  }
  return cfg;
}

TEST(PacketLevelTestbed, CollectsRequestedCount) {
  auto cfg = config_with_hop(0.2);
  util::Xoshiro256pp rng(1);
  PacketLevelTestbed bed(cfg, rng);
  EXPECT_EQ(bed.collect_piats(500).size(), 500u);
  EXPECT_EQ(bed.hop_count(), 1u);
  EXPECT_GT(bed.events_processed(), 500u);
}

TEST(PacketLevelTestbed, NoHopsEqualsGatewayOutput) {
  TestbedConfig cfg;
  cfg.policy = std::make_shared<ConstantIntervalTimer>(10e-3);
  cfg.payload_rate = 40.0;
  util::Xoshiro256pp rng(2);
  PacketLevelTestbed bed(cfg, rng);
  const auto piats = bed.collect_piats(5000);
  EXPECT_NEAR(stats::mean(piats), 10e-3, 1e-5);
}

TEST(PacketLevelTestbed, DeterministicBySeed) {
  auto cfg = config_with_hop(0.3);
  util::Xoshiro256pp a(7), b(7);
  PacketLevelTestbed bed_a(cfg, a), bed_b(cfg, b);
  EXPECT_EQ(bed_a.collect_piats(300), bed_b.collect_piats(300));
}

TEST(PacketLevelTestbed, CrossTrafficIncreasesVariance) {
  util::Xoshiro256pp r1(3), r2(3);
  auto quiet_cfg = config_with_hop(0.0);
  auto busy_cfg = config_with_hop(0.5);
  PacketLevelTestbed quiet(quiet_cfg, r1);
  PacketLevelTestbed busy(busy_cfg, r2);
  const auto q = quiet.collect_piats(15000);
  const auto b = busy.collect_piats(15000);
  EXPECT_GT(stats::sample_variance(b), 1.5 * stats::sample_variance(q));
  EXPECT_NEAR(stats::mean(b), stats::mean(q), 2e-5);
}

// With no hops the two engines are the same program: the packet-level
// engine's scheduled delivery changes when the sniffer sees a packet, never
// the time stamped on it or the order of any RNG draw.
TEST(PacketLevelTestbed, ZeroHopPiatsAreBitIdenticalToTheAnalyticEngine) {
  const auto same_piats = [](std::shared_ptr<const TimerPolicy> policy,
                             double payload_rate, std::uint64_t seed) {
    TestbedConfig cfg;
    cfg.policy = std::move(policy);
    cfg.payload_rate = payload_rate;
    util::Xoshiro256pp rng_a(seed), rng_p(seed);
    Testbed analytic(cfg, rng_a);
    PacketLevelTestbed packet(cfg, rng_p);
    EXPECT_EQ(analytic.collect_piats(3000), packet.collect_piats(3000))
        << cfg.policy->name() << " at " << payload_rate << " pps, seed "
        << seed;
  };
  const auto cit = std::make_shared<ConstantIntervalTimer>(10e-3);
  for (double rate : {10.0, 40.0}) {
    for (std::uint64_t seed : {1, 2, 3}) same_piats(cit, rate, seed);
  }
  same_piats(std::make_shared<NormalIntervalTimer>(10e-3, 500e-6), 40.0, 4);
  same_piats(std::make_shared<AdaptiveGapTimer>(10e-3, 0.5, 2e-3), 40.0, 5);
  same_piats(std::make_shared<OnOffTimer>(
                 std::make_unique<ConstantIntervalTimer>(10e-3), 50e-3),
             10.0, 6);
}

// --- the fidelity contract between the two engines ---

class EngineFidelity : public ::testing::TestWithParam<double> {};

TEST_P(EngineFidelity, PiatMomentsAgreeAcrossEngines) {
  const double rho = GetParam();
  const auto cfg = config_with_hop(rho);
  const std::size_t count = 60000;

  util::Xoshiro256pp rng_a(11);
  Testbed analytic(cfg, rng_a);
  const auto pa = analytic.collect_piats(count);

  util::Xoshiro256pp rng_p(12);
  PacketLevelTestbed packet(cfg, rng_p);
  const auto pp = packet.collect_piats(count);

  const auto sa = stats::summarize(pa);
  const auto sp = stats::summarize(pp);
  EXPECT_NEAR(sa.mean, sp.mean, 2e-6) << "rho " << rho;
  // Variances within 10%: the analytic channel is a sampling shortcut of
  // the same queueing process, not a different model.
  EXPECT_NEAR(sa.variance, sp.variance, 0.1 * sp.variance) << "rho " << rho;
}

INSTANTIATE_TEST_SUITE_P(Utilizations, EngineFidelity,
                         ::testing::Values(0.1, 0.4));

}  // namespace
}  // namespace linkpad::sim
