#include "stats/distributions.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "stats/descriptive.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace linkpad::stats {
namespace {

template <typename Dist>
Summary sample_summary(const Dist& dist, int n, std::uint64_t seed) {
  util::Xoshiro256pp rng(seed);
  RunningStats rs;
  for (int i = 0; i < n; ++i) rs.add(dist.sample(rng));
  Summary s;
  s.count = rs.count();
  s.mean = rs.mean();
  s.variance = rs.variance();
  s.min = rs.min();
  s.max = rs.max();
  s.skewness = rs.skewness();
  return s;
}

TEST(Normal, PdfCdfKnownValues) {
  Normal d(0.0, 1.0);
  EXPECT_NEAR(d.pdf(0.0), 0.39894228, 1e-7);
  EXPECT_NEAR(d.cdf(0.0), 0.5, 1e-12);
  Normal d2(3.0, 2.0);
  EXPECT_NEAR(d2.cdf(3.0), 0.5, 1e-12);
  EXPECT_NEAR(d2.cdf(5.0), 0.8413447, 1e-6);
}

TEST(Normal, LogPdfConsistentWithPdf) {
  Normal d(1.0, 0.3);
  for (double x : {0.5, 1.0, 2.0}) {
    EXPECT_NEAR(std::exp(d.log_pdf(x)), d.pdf(x), 1e-12);
  }
}

TEST(Normal, QuantileInvertsCdf) {
  Normal d(-2.0, 4.0);
  for (double p : {0.01, 0.3, 0.5, 0.9, 0.999}) {
    EXPECT_NEAR(d.cdf(d.quantile(p)), p, 1e-10);
  }
}

TEST(Normal, SampleMomentsMatch) {
  const auto s = sample_summary(Normal(5.0, 3.0), 200000, 1);
  EXPECT_NEAR(s.mean, 5.0, 0.05);
  EXPECT_NEAR(s.variance, 9.0, 0.15);
  EXPECT_NEAR(s.skewness, 0.0, 0.05);
}

TEST(HalfNormal, MomentsMatchClosedForms) {
  const double sigma = 2.0;
  HalfNormal d(sigma);
  EXPECT_NEAR(d.mean(), sigma * std::sqrt(2.0 / M_PI), 1e-12);
  EXPECT_NEAR(d.variance(), sigma * sigma * (1.0 - 2.0 / M_PI), 1e-12);
  const auto s = sample_summary(d, 200000, 2);
  EXPECT_NEAR(s.mean, d.mean(), 0.02);
  EXPECT_NEAR(s.variance, d.variance(), 0.05);
  EXPECT_GE(s.min, 0.0);
}

TEST(HalfNormal, PdfZeroBelowZero) {
  HalfNormal d(1.0);
  EXPECT_DOUBLE_EQ(d.pdf(-0.1), 0.0);
  EXPECT_NEAR(d.pdf(0.0), std::sqrt(2.0 / M_PI), 1e-12);
}

TEST(TruncatedNormal, SamplesRespectLowerBound) {
  TruncatedNormal d(1.0, 2.0, 0.5);
  util::Xoshiro256pp rng(3);
  for (int i = 0; i < 20000; ++i) ASSERT_GE(d.sample(rng), 0.5);
}

TEST(TruncatedNormal, MomentsMatchClosedForm) {
  TruncatedNormal d(10.0, 5.0, 8.0);
  const auto s = sample_summary(d, 300000, 4);
  EXPECT_NEAR(s.mean, d.mean(), 0.03);
  EXPECT_NEAR(s.variance, d.variance(), 0.2);
}

TEST(TruncatedNormal, NegligibleTruncationMatchesNormal) {
  // Lower bound 10 sigma below the mean: behaves like a plain normal.
  TruncatedNormal d(10e-3, 100e-6, 10e-3 - 1.0);
  EXPECT_NEAR(d.mean(), 10e-3, 1e-9);
  EXPECT_NEAR(d.variance(), 1e-8, 1e-12);
  const auto s = sample_summary(d, 100000, 5);
  EXPECT_NEAR(s.mean, 10e-3, 2e-6);
}

TEST(TruncatedNormal, DeepTruncationStillCorrect) {
  // Mean far BELOW the bound: all mass in the upper tail.
  TruncatedNormal d(0.0, 1.0, 3.0);
  const auto s = sample_summary(d, 100000, 6);
  EXPECT_GE(s.min, 3.0);
  EXPECT_NEAR(s.mean, d.mean(), 0.02);
  // Tail mean of N(0,1) above 3 is phi(3)/Q(3) ~ 3.2831
  EXPECT_NEAR(d.mean(), 3.2831, 0.001);
}

TEST(Exponential, MomentsAndMemorylessCdf) {
  Exponential d(0.5);
  EXPECT_NEAR(d.cdf(0.5), 1.0 - std::exp(-1.0), 1e-12);
  const auto s = sample_summary(d, 200000, 7);
  EXPECT_NEAR(s.mean, 0.5, 0.01);
  EXPECT_NEAR(s.variance, 0.25, 0.01);
  EXPECT_GE(s.min, 0.0);
}

TEST(Uniform, MomentsAndSupport) {
  Uniform d(2.0, 6.0);
  EXPECT_DOUBLE_EQ(d.mean(), 4.0);
  EXPECT_NEAR(d.variance(), 16.0 / 12.0, 1e-12);
  const auto s = sample_summary(d, 100000, 8);
  EXPECT_NEAR(s.mean, 4.0, 0.02);
  EXPECT_GE(s.min, 2.0);
  EXPECT_LT(s.max, 6.0);
}

TEST(Distributions, InvalidParametersRejected) {
  EXPECT_THROW(Normal(0.0, 0.0), ContractViolation);
  EXPECT_THROW(HalfNormal(-1.0), ContractViolation);
  EXPECT_THROW(Exponential(0.0), ContractViolation);
  EXPECT_THROW(Uniform(1.0, 1.0), ContractViolation);
}

TEST(StandardNormal, SamplerMomentsMatch) {
  util::Xoshiro256pp rng(13);
  RunningStats rs;
  for (int i = 0; i < 300000; ++i) rs.add(sample_standard_normal(rng));
  EXPECT_NEAR(rs.mean(), 0.0, 0.01);
  EXPECT_NEAR(rs.variance(), 1.0, 0.02);
  EXPECT_NEAR(rs.excess_kurtosis(), 0.0, 0.05);
}

}  // namespace
}  // namespace linkpad::stats
