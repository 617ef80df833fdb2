// Exact stationary M/D/1 waiting-time sampling (Pollaczek–Khinchine).
//
// Cross traffic at a router hop is a Poisson stream of constant-size packets
// sharing the output link with the monitored padded stream. The padded
// stream samples that queue only once per ~10 ms, while the queue's
// relaxation time is ~E[S]/(1−ρ) ≈ tens of µs, so consecutive monitored
// packets see effectively independent draws of the *stationary virtual
// waiting time* V (and by PASTA a Poisson-agnostic arrival sees the
// time-stationary law). The PK representation makes exact sampling trivial:
//
//     V  =  Σ_{i=1}^{K} R_i,   K ~ Geometric(ρ)  (P[K = k] = (1−ρ)ρ^k),
//     R_i i.i.d. equilibrium (residual) service times, here Uniform(0, S].
//
// K is drawn by inversion from one uniform u ∈ (0, 1]: K = ⌊ln u / ln ρ⌋,
// the number of powers ρ, ρ², … that are still >= u. `sample` walks those
// powers and adds one residual per step, so it takes no log: an idle server
// (u > ρ, probability 1−ρ) costs one uniform, and a busy one adds one
// residual draw and one multiply per step, E[K] = ρ/(1−ρ) steps in all —
// one uniform per step fewer than the rejection loop, which spends a test
// uniform per step. The cost is independent of the cross-traffic packet
// rate — the trick that makes the 24-hour WAN figures tractable. Validated
// against the packet-level Router in tests/sim/router_test.cpp and against
// the textbook rejection loop (KS) in tests/sim/mg1_test.cpp.
#pragma once

#include "util/rng.hpp"
#include "util/types.hpp"

namespace linkpad::sim {

/// Samples stationary waiting times of an M/D/1 queue at utilization rho.
class Mg1WaitSampler {
 public:
  /// `mean_service` is the constant service time S in seconds; rho in [0, 1).
  Mg1WaitSampler(double rho, Seconds mean_service);

  /// One stationary waiting-time draw (0 with probability 1−ρ). Inline:
  /// it is the single hottest arithmetic in a population run (one draw per
  /// hop per monitored packet at up to the clamped ρ = 0.95), and keeping
  /// it in the header lets the whole draw chain flatten into the caller.
  [[nodiscard]] Seconds sample(util::Rng& rng) const {
    if (rho_ <= 0.0) return 0.0;
    const double u = 1.0 - rng.uniform01();  // (0, 1]
    if (u > rho_) return 0.0;                // K = 0
    // K = #{k >= 1 : u <= ρ^k}: one residual per power of ρ still >= u.
    Seconds v = 0.0;
    for (double p = rho_; u <= p; p *= rho_) v += sample_residual(rng);
    return v;
  }

  /// Exact stationary mean waiting time E[V] = λS²/(2(1−ρ)), λ = ρ/S.
  [[nodiscard]] double mean_wait() const;

  /// Exact stationary waiting-time variance (from PK transform moments):
  /// Var(V) = λS³/(3(1−ρ)) + (λS²)²/(4(1−ρ)²).
  [[nodiscard]] double wait_variance() const;

  [[nodiscard]] double rho() const { return rho_; }
  [[nodiscard]] Seconds mean_service() const { return mean_service_; }

  /// Update the utilization (diurnal profiles re-tune hops over the day).
  void set_rho(double rho);

 private:
  /// One equilibrium residual service time draw: Uniform(0, S], here
  /// S·(j + 1)·2⁻⁵³ for the 53-bit j of uniform01.
  [[nodiscard]] Seconds sample_residual(util::Rng& rng) const {
    return mean_service_ * (rng.uniform01() + 0x1.0p-53);
  }

  double rho_ = 0.0;
  Seconds mean_service_;
};

}  // namespace linkpad::sim
