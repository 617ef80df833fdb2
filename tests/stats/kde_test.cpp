#include "stats/kde.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/distributions.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace linkpad::stats {
namespace {

std::vector<double> normal_sample(double mu, double sigma, int n,
                                  std::uint64_t seed) {
  util::Xoshiro256pp rng(seed);
  Normal dist(mu, sigma);
  std::vector<double> xs(n);
  for (auto& x : xs) x = dist.sample(rng);
  return xs;
}

TEST(GaussianKde, IntegratesToOne) {
  const auto xs = normal_sample(0.0, 1.0, 2000, 3);
  GaussianKde kde(xs);
  // Trapezoid over ±8 sigma.
  double mass = 0.0;
  const double lo = -8.0, hi = 8.0;
  const int steps = 4000;
  const double dx = (hi - lo) / steps;
  for (int i = 0; i <= steps; ++i) {
    const double w = (i == 0 || i == steps) ? 0.5 : 1.0;
    mass += w * kde.pdf(lo + i * dx) * dx;
  }
  EXPECT_NEAR(mass, 1.0, 1e-3);
}

TEST(GaussianKde, RecoversNormalDensity) {
  const auto xs = normal_sample(2.0, 0.5, 20000, 5);
  GaussianKde kde(xs);
  Normal truth(2.0, 0.5);
  for (double x : {1.0, 1.5, 2.0, 2.5, 3.0}) {
    EXPECT_NEAR(kde.pdf(x), truth.pdf(x), 0.05) << x;
  }
}

TEST(GaussianKde, SilvermanBandwidthMatchesFormula) {
  const auto xs = normal_sample(0.0, 1.0, 1000, 7);
  const double h = select_bandwidth(xs, BandwidthRule::kSilverman);
  // 0.9 * min(sd, iqr/1.34) * n^{-1/5}; with normal data both ≈ sigma.
  EXPECT_GT(h, 0.9 * 0.8 * std::pow(1000.0, -0.2));
  EXPECT_LT(h, 0.9 * 1.2 * std::pow(1000.0, -0.2));
}

TEST(GaussianKde, ScottBandwidthLargerThanSilvermanOnNormal) {
  const auto xs = normal_sample(0.0, 1.0, 1000, 9);
  EXPECT_GT(select_bandwidth(xs, BandwidthRule::kScott),
            select_bandwidth(xs, BandwidthRule::kSilverman));
}

TEST(GaussianKde, FixedBandwidthIsUsedVerbatim) {
  const std::vector<double> xs = {0.0, 1.0, 2.0};
  GaussianKde kde(xs, BandwidthRule::kFixed, 0.37);
  EXPECT_DOUBLE_EQ(kde.bandwidth(), 0.37);
}

TEST(GaussianKde, FixedRuleRequiresPositiveBandwidth) {
  const std::vector<double> xs = {0.0, 1.0};
  EXPECT_THROW(GaussianKde(xs, BandwidthRule::kFixed, 0.0), ContractViolation);
}

TEST(GaussianKde, DegenerateConstantSampleStaysFinite) {
  const std::vector<double> xs = {5.0, 5.0, 5.0, 5.0};
  GaussianKde kde(xs);
  EXPECT_GT(kde.pdf(5.0), 0.0);
  EXPECT_TRUE(std::isfinite(kde.pdf(5.0)));
}

TEST(GaussianKde, LogPdfFiniteFarFromData) {
  const auto xs = normal_sample(0.0, 1.0, 100, 11);
  GaussianKde kde(xs);
  const double lp = kde.log_pdf(1000.0);
  EXPECT_TRUE(std::isfinite(lp));
  EXPECT_LT(lp, kde.log_pdf(0.0));
}

TEST(GaussianKde, LogPdfOrdersByDistanceOutsideSupport) {
  const auto xs = normal_sample(0.0, 0.1, 200, 13);
  GaussianKde kde(xs);
  EXPECT_GT(kde.log_pdf(50.0), kde.log_pdf(100.0));
}

TEST(GaussianKde, EmptySampleRejected) {
  const std::vector<double> empty;
  EXPECT_THROW(GaussianKde{empty}, ContractViolation);
}

class KdeBandwidthSweep : public ::testing::TestWithParam<double> {};

TEST_P(KdeBandwidthSweep, MassStaysNormalizedAcrossBandwidths) {
  const auto xs = normal_sample(0.0, 1.0, 500, 21);
  GaussianKde kde(xs, BandwidthRule::kFixed, GetParam());
  double mass = 0.0;
  const double lo = -12.0, hi = 12.0;
  const int steps = 6000;
  const double dx = (hi - lo) / steps;
  for (int i = 0; i <= steps; ++i) {
    mass += kde.pdf(lo + i * dx) * dx;
  }
  EXPECT_NEAR(mass, 1.0, 5e-3) << "bandwidth " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Bandwidths, KdeBandwidthSweep,
                         ::testing::Values(0.05, 0.2, 0.5, 1.0));

}  // namespace
}  // namespace linkpad::stats
