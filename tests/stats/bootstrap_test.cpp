#include "stats/bootstrap.hpp"

#include <gtest/gtest.h>

#include "util/check.hpp"

namespace linkpad::stats {
namespace {

TEST(ProportionCi, WilsonKnownCase) {
  // 80/100 at 95%: Wilson interval ~ [0.711, 0.867]
  const auto r = proportion_ci(80, 100, 0.95);
  EXPECT_DOUBLE_EQ(r.estimate, 0.8);
  EXPECT_NEAR(r.lo, 0.711, 0.005);
  EXPECT_NEAR(r.hi, 0.867, 0.005);
}

TEST(ProportionCi, ExtremesStayInUnitInterval) {
  const auto zero = proportion_ci(0, 50, 0.95);
  EXPECT_GE(zero.lo, 0.0);
  EXPECT_GT(zero.hi, 0.0);
  const auto all = proportion_ci(50, 50, 0.95);
  EXPECT_LE(all.hi, 1.0);
  EXPECT_LT(all.lo, 1.0);
}

TEST(ProportionCi, WiderAtHigherConfidence) {
  const auto a = proportion_ci(30, 60, 0.9);
  const auto b = proportion_ci(30, 60, 0.99);
  EXPECT_GT(b.hi - b.lo, a.hi - a.lo);
}

TEST(ProportionCi, ShrinksWithMoreTrials) {
  const auto small = proportion_ci(8, 10, 0.95);
  const auto big = proportion_ci(800, 1000, 0.95);
  EXPECT_GT(small.hi - small.lo, big.hi - big.lo);
}

TEST(ProportionCi, InvalidInputsRejected) {
  EXPECT_THROW(proportion_ci(1, 0, 0.95), ContractViolation);
  EXPECT_THROW(proportion_ci(5, 4, 0.95), ContractViolation);
  EXPECT_THROW(proportion_ci(1, 2, 0.0), ContractViolation);
}

}  // namespace
}  // namespace linkpad::stats
