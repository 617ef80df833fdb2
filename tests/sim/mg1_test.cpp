#include "sim/mg1.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "stats/descriptive.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace linkpad::sim {
namespace {

TEST(Mg1WaitSampler, ZeroUtilizationNeverWaits) {
  Mg1WaitSampler s(0.0, 10e-6);
  util::Rng rng(1);
  for (int i = 0; i < 1000; ++i) EXPECT_DOUBLE_EQ(s.sample(rng), 0.0);
  EXPECT_DOUBLE_EQ(s.mean_wait(), 0.0);
  EXPECT_DOUBLE_EQ(s.wait_variance(), 0.0);
}

TEST(Mg1WaitSampler, IdleProbabilityIsOneMinusRho) {
  const int n = 200000;
  for (double rho : {0.3, 0.95}) {
    Mg1WaitSampler s(rho, 10e-6);
    util::Rng rng(2);
    int zero = 0;
    for (int i = 0; i < n; ++i) {
      if (s.sample(rng) == 0.0) ++zero;
    }
    // Five binomial standard errors.
    EXPECT_NEAR(static_cast<double>(zero) / n, 1.0 - rho,
                5.0 * std::sqrt(rho * (1.0 - rho) / n))
        << "rho " << rho;
  }
}

TEST(Mg1WaitSampler, MeanMatchesPollaczekKhinchineMD1) {
  // M/D/1: E[W] = ρS/(2(1−ρ)) and
  // Var(W) = ρS²/(3(1−ρ)) + (ρS/(2(1−ρ)))².
  const double s_time = 8e-6;
  for (double rho : {0.2, 0.5, 0.95}) {
    Mg1WaitSampler s(rho, s_time);
    const double mean = rho * s_time / (2.0 * (1.0 - rho));
    EXPECT_NEAR(s.mean_wait(), mean, 1e-15);
    const double variance =
        rho * s_time * s_time / (3.0 * (1.0 - rho)) + mean * mean;
    EXPECT_NEAR(s.wait_variance(), variance, 1e-15 * variance) << rho;
  }
}

class Mg1MomentSweep : public ::testing::TestWithParam<double> {};

TEST_P(Mg1MomentSweep, SampleMomentsMatchClosedForms) {
  const double rho = GetParam();
  const double service = 10e-6;
  Mg1WaitSampler s(rho, service);
  util::Rng rng(42);
  stats::RunningStats rs;
  const int n = 400000;
  for (int i = 0; i < n; ++i) rs.add(s.sample(rng));
  EXPECT_NEAR(rs.mean(), s.mean_wait(), 0.02 * s.mean_wait() + 1e-9);
  EXPECT_NEAR(rs.variance(), s.wait_variance(),
              0.05 * s.wait_variance() + 1e-15);
}

INSTANTIATE_TEST_SUITE_P(Rho, Mg1MomentSweep,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9, 0.95));

/// The textbook PK sampler the inversion path must reproduce in law: count
/// K by rejection (one uniform per step, stop at the first U >= ρ) and add
/// one Uniform(0, S] residual per step.
double reference_wait(double rho, double service, util::Rng& rng) {
  double v = 0.0;
  while (rng.uniform01() < rho) v += service * (1.0 - rng.uniform01());
  return v;
}

/// Two-sample Kolmogorov–Smirnov statistic sup |F_a − F_b|. Ties (the atom
/// at 0) are stepped over together, so D is evaluated only between
/// distinct values.
double ks_statistic(std::vector<double> a, std::vector<double> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  std::size_t i = 0, j = 0;
  double d = 0.0;
  while (i < a.size() && j < b.size()) {
    const double x = std::min(a[i], b[j]);
    while (i < a.size() && a[i] == x) ++i;
    while (j < b.size() && b[j] == x) ++j;
    d = std::max(d, std::abs(static_cast<double>(i) / na -
                             static_cast<double>(j) / nb));
  }
  return d;
}

class Mg1KsSweep : public ::testing::TestWithParam<double> {};

TEST_P(Mg1KsSweep, MatchesRejectionReferenceInLaw) {
  const double rho = GetParam();
  const double service = 10e-6;
  const std::size_t n = 200000;
  Mg1WaitSampler s(rho, service);
  util::Rng rng(7);
  util::Rng ref_rng(8);
  std::vector<double> fast(n), ref(n);
  for (auto& v : fast) v = s.sample(rng);
  for (auto& v : ref) v = reference_wait(rho, service, ref_rng);
  // Asymptotic critical value at alpha = 0.001: c = sqrt(-ln(alpha/2)/2),
  // conservative for the atom at 0.
  const double alpha = 0.001;
  const double crit = std::sqrt(-0.5 * std::log(alpha / 2.0)) *
                      std::sqrt(2.0 / static_cast<double>(n));
  EXPECT_LT(ks_statistic(fast, ref), crit);
}

INSTANTIATE_TEST_SUITE_P(Rho, Mg1KsSweep, ::testing::Values(0.1, 0.5, 0.95));

TEST(Mg1WaitSampler, NearSaturationLongWalksMatchClosedForms) {
  // At ρ = 0.999, E[K] = 999 and P[K > 2047] ≈ 13%, so many draws walk the
  // powers of ρ through thousands of multiplies, each adding a rounding
  // error to ρ^k. A wait above 2047·S needs K > 2047 (every residual is at
  // most S).
  const double service = 10e-6;
  Mg1WaitSampler s(0.999, service);
  util::Rng rng(9);
  stats::RunningStats rs;
  int crossed = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double v = s.sample(rng);
    rs.add(v);
    if (v > 2047.0 * service) ++crossed;
  }
  EXPECT_GT(crossed, 500);
  EXPECT_NEAR(rs.mean(), s.mean_wait(), 0.02 * s.mean_wait());
  EXPECT_NEAR(rs.variance(), s.wait_variance(), 0.05 * s.wait_variance());
}

TEST(Mg1WaitSampler, VarianceIncreasesWithRho) {
  const double service = 10e-6;
  double prev = -1.0;
  for (double rho : {0.1, 0.2, 0.3, 0.4, 0.5, 0.6}) {
    Mg1WaitSampler s(rho, service);
    EXPECT_GT(s.wait_variance(), prev);
    prev = s.wait_variance();
  }
}

TEST(Mg1WaitSampler, SetRhoUpdatesMoments) {
  Mg1WaitSampler s(0.1, 10e-6);
  const double before = s.wait_variance();
  s.set_rho(0.5);
  EXPECT_GT(s.wait_variance(), before);
  EXPECT_DOUBLE_EQ(s.rho(), 0.5);
}

TEST(Mg1WaitSampler, InvalidParamsRejected) {
  EXPECT_THROW(Mg1WaitSampler(1.0, 1e-6), linkpad::ContractViolation);
  EXPECT_THROW(Mg1WaitSampler(-0.1, 1e-6), linkpad::ContractViolation);
  EXPECT_THROW(Mg1WaitSampler(0.5, 0.0), linkpad::ContractViolation);
}

}  // namespace
}  // namespace linkpad::sim
