// Exact stationary M/G/1 waiting-time sampling (Pollaczek–Khinchine).
//
// Cross traffic at a router hop is a Poisson packet stream sharing the
// output link with the monitored padded stream. The padded stream samples
// that queue only once per ~10 ms, while the queue's relaxation time is
// ~E[S]/(1−ρ) ≈ tens of µs, so consecutive monitored packets see effectively
// independent draws of the *stationary virtual waiting time* V (and by PASTA
// a Poisson-agnostic arrival sees the time-stationary law). The PK
// representation makes exact sampling trivial:
//
//     V  =  Σ_{i=1}^{K} R_i,   K ~ Geometric(ρ)  (P[K = k] = (1−ρ)ρ^k),
//     R_i i.i.d. equilibrium (residual) service times, f_R = (1−F_S)/E[S].
//
// K is drawn by inversion from one uniform u ∈ (0, 1]: K = ⌊ln u / ln ρ⌋,
// the number of powers ρ, ρ², … that are still >= u. `sample` walks those
// powers and adds one residual per step, so it takes no log: an idle server
// (u > ρ, probability 1−ρ) costs one uniform, and a busy one adds one
// residual draw and one multiply per step, E[K] = ρ/(1−ρ) steps in all —
// one uniform per step fewer than the rejection loop, which spends a test
// uniform per step. For deterministic service S, R ~ Uniform(0, S]; the trimodal mix
// picks a size-biased component, then a uniform residual within it.
// Exponential service (M/M/1) has a closed form, V = 0 w.p. 1−ρ else
// Exp(E[S]/(1−ρ)), so it costs O(1) at any ρ. The cost is independent of the
// cross-traffic packet rate — the trick that makes the 24-hour WAN figures
// tractable. Validated against the packet-level Router in
// tests/sim/router_test.cpp and against the textbook rejection loop (KS) in
// tests/sim/mg1_test.cpp.
#pragma once

#include <cmath>
#include <vector>

#include "stats/distributions.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace linkpad::sim {

/// Service-time model of the cross traffic at one hop.
enum class ServiceModel {
  kDeterministic,  ///< all cross packets the same size (M/D/1)
  kExponential,    ///< exponential service (M/M/1)
  kTrimodal,       ///< empirical internet mix: 40 / 576 / 1500 byte packets
};

/// Samples stationary waiting times of an M/G/1 queue at utilization rho.
class Mg1WaitSampler {
 public:
  /// `mean_service` is E[S] in seconds; rho in [0, 1).
  Mg1WaitSampler(double rho, Seconds mean_service, ServiceModel model);

  /// One stationary waiting-time draw (0 with probability 1−ρ). Inline:
  /// it is the single hottest arithmetic in a population run (one draw per
  /// hop per monitored packet at up to the clamped ρ = 0.95), and keeping
  /// it in the header lets the whole draw chain flatten into the caller.
  [[nodiscard]] Seconds sample(util::Rng& rng) const {
    if (rho_ <= 0.0) return 0.0;
    const double u = 1.0 - rng.uniform01();  // (0, 1]
    if (u > rho_) return 0.0;                // K = 0
    if (model_ == ServiceModel::kExponential) {
      // Given K >= 1, u/ρ is Uniform(0, 1] and the geometric sum of
      // Exp(E[S]) residuals is Exp(E[S]/(1−ρ)).
      return busy_mean_ * std::log(rho_ / u);
    }
    // K = #{k >= 1 : u <= ρ^k}: one residual per power of ρ still >= u.
    Seconds v = 0.0;
    for (double p = rho_; u <= p; p *= rho_) v += sample_residual(rng);
    return v;
  }

  /// Exact stationary mean waiting time E[V] = λE[S²]/(2(1−ρ)).
  [[nodiscard]] double mean_wait() const;

  /// Exact stationary waiting-time variance (from PK transform moments):
  /// Var(V) = λE[S³]/(3(1−ρ)) + (λE[S²])²/(4(1−ρ)²).
  [[nodiscard]] double wait_variance() const;

  [[nodiscard]] double rho() const { return rho_; }
  [[nodiscard]] Seconds mean_service() const { return mean_service_; }

  /// Update the utilization (diurnal profiles re-tune hops over the day).
  void set_rho(double rho);

 private:
  /// One equilibrium residual service time draw. Deterministic service S
  /// has residual Uniform(0, S], here S·(j + 1)·2⁻⁵³ for the 53-bit j of
  /// uniform01; the trimodal mix picks a component size-biased by its
  /// service time (weights precomputed at construction), then a uniform
  /// residual within it.
  [[nodiscard]] Seconds sample_residual(util::Rng& rng) const {
    if (model_ == ServiceModel::kDeterministic) {
      return mean_service_ * (rng.uniform01() + 0x1.0p-53);
    }
    double u = rng.uniform01() * tri_total_;
    int pick = 0;
    for (; pick < 2; ++pick) {
      if (u < tri_weight_[pick]) break;
      u -= tri_weight_[pick];
    }
    return tri_service_[pick] * (1.0 - rng.uniform01());
  }

  double rho_;
  Seconds mean_service_;
  ServiceModel model_;
  // The M/M/1 busy-server wait mean E[S]/(1−ρ), derived from rho_ by
  // set_rho.
  Seconds busy_mean_ = 0;
  // Raw service moments E[S], E[S²], E[S³] for the chosen model.
  double es1_ = 0, es2_ = 0, es3_ = 0;
  // Trimodal residual sampling state (per-component service time and
  // size-biased weight, plus the weight total), fixed at construction.
  double tri_service_[3] = {0, 0, 0};
  double tri_weight_[3] = {0, 0, 0};
  double tri_total_ = 0;
};

/// The trimodal internet packet mix used by ServiceModel::kTrimodal:
/// sizes in bytes with empirical probabilities (40: 50%, 576: 30%, 1500: 20%).
struct TrimodalMix {
  static constexpr double kSizes[3] = {40.0, 576.0, 1500.0};
  static constexpr double kProbs[3] = {0.5, 0.3, 0.2};
  /// Mean packet size of the mix, bytes.
  static double mean_bytes();
};

}  // namespace linkpad::sim
