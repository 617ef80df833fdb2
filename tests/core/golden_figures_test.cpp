// Golden-figure regression wall: the headline numbers of the reproduction,
// pinned at a fixed seed. The figure generators are deterministic (sim
// backend, fixed seed, fixed effort), so a refactor that silently shifts
// detection outcomes — a reordered stream pull, an off-by-one window, a
// classifier tweak — fails HERE, in ctest, instead of surviving until a
// reviewer eyeballs a plot diff.
//
// Tolerances are deliberately tight: at 75 test windows per class a ±0.015
// band is about two flipped windows. Numeric-identity refactors pass
// untouched; anything that re-routes a stream does not. If a change moves
// these numbers ON PURPOSE (recalibration, a different default), re-pin the
// constants in the same commit and say so in the commit message.
#include "core/figures.hpp"

#include <gtest/gtest.h>

#include "core/scenarios.hpp"

namespace linkpad::core {
namespace {

/// Effort 0.3 keeps the paper-grade axes (effort < 0.3 shrinks them) at
/// ~1 s of total runtime; the seed is the repo-wide default.
FigureOptions golden() {
  FigureOptions options;
  options.effort = 0.3;
  options.seed = 20030324;
  return options;
}

constexpr double kTol = 0.015;

TEST(GoldenFigures, Fig4bDetectionAtN3000) {
  const auto fig = fig4b_detection_vs_n(golden());
  ASSERT_EQ(fig.x.back(), 3000.0);

  // The paper's headline: at n = 3000 under CIT the variance and entropy
  // adversaries win outright while the mean stays blind.
  EXPECT_NEAR(fig.curve("sample variance experiment").y.back(), 1.0000, kTol);
  EXPECT_NEAR(fig.curve("sample entropy experiment").y.back(), 1.0000, kTol);
  EXPECT_NEAR(fig.curve("sample mean experiment").y.back(), 0.5333, kTol);
  EXPECT_NEAR(fig.curve("sample variance theory").y.back(), 0.9796, kTol);

  // Mid-curve anchor (n = 1000): catches shifts that the saturated
  // n = 3000 endpoint would mask.
  ASSERT_EQ(fig.x[5], 1000.0);
  EXPECT_NEAR(fig.curve("sample variance experiment").y[5], 0.9933, kTol);
  EXPECT_NEAR(fig.curve("sample entropy experiment").y[5], 0.9967, kTol);
}

TEST(GoldenFigures, Fig6DetectionAtUtilizationHalf) {
  const auto fig = fig6_detection_vs_utilization(golden());
  ASSERT_EQ(fig.x.back(), 0.5);

  // At 50% shared-link utilization the cross traffic has washed most of
  // the leak out — the Fig 6 endpoint.
  EXPECT_NEAR(fig.curve("sample variance").y.back(), 0.4800, kTol);
  EXPECT_NEAR(fig.curve("sample entropy").y.back(), 0.5867, kTol);

  // Low-utilization anchor: detection still near-certain at ρ = 0.05.
  ASSERT_EQ(fig.x.front(), 0.05);
  EXPECT_NEAR(fig.curve("sample variance").y.front(), 0.9467, kTol);
  EXPECT_NEAR(fig.curve("sample entropy").y.front(), 0.9800, kTol);
}

}  // namespace
}  // namespace linkpad::core
