#include "stats/special_math.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace linkpad::stats {
namespace {

TEST(NormalPdf, KnownValues) {
  EXPECT_NEAR(normal_pdf(0.0), 0.3989422804014327, 1e-15);
  EXPECT_NEAR(normal_pdf(1.0), 0.24197072451914337, 1e-15);
  EXPECT_NEAR(normal_pdf(-1.0), normal_pdf(1.0), 1e-16);
}

TEST(NormalCdf, KnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-15);
  EXPECT_NEAR(normal_cdf(1.0), 0.8413447460685429, 1e-12);
  EXPECT_NEAR(normal_cdf(-1.96), 0.024997895148220435, 1e-12);
  EXPECT_NEAR(normal_cdf(3.0), 0.9986501019683699, 1e-12);
}

TEST(NormalCdf, Symmetry) {
  for (double x : {0.3, 1.1, 2.7, 4.0}) {
    EXPECT_NEAR(normal_cdf(x) + normal_cdf(-x), 1.0, 1e-14) << x;
  }
}

TEST(NormalQuantile, KnownValues) {
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-12);
  EXPECT_NEAR(normal_quantile(0.975), 1.959963984540054, 1e-9);
  EXPECT_NEAR(normal_quantile(0.99), 2.3263478740408408, 1e-9);
}

TEST(NormalQuantile, DomainErrors) {
  EXPECT_THROW(normal_quantile(0.0), std::domain_error);
  EXPECT_THROW(normal_quantile(1.0), std::domain_error);
  EXPECT_THROW(normal_quantile(-0.1), std::domain_error);
}

class QuantileRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(QuantileRoundTrip, CdfOfQuantileIsIdentity) {
  const double p = GetParam();
  EXPECT_NEAR(normal_cdf(normal_quantile(p)), p, 1e-12) << p;
}

INSTANTIATE_TEST_SUITE_P(SweepP, QuantileRoundTrip,
                         ::testing::Values(1e-10, 1e-6, 0.01, 0.1, 0.25, 0.5,
                                           0.75, 0.9, 0.99, 1.0 - 1e-6,
                                           1.0 - 1e-10));

}  // namespace
}  // namespace linkpad::stats
