// Special functions needed by the detection-rate theory and the
// distribution substrate: the standard normal pdf, cdf and quantile.
//
// Implemented from scratch (no external deps): the normal quantile uses
// Acklam's rational approximation refined with one Halley step (|err| below
// 1e-13 over (0,1)).
#pragma once

namespace linkpad::stats {

/// Standard normal density φ(x).
double normal_pdf(double x);

/// Standard normal CDF Φ(x), accurate to double precision via erfc.
double normal_cdf(double x);

/// Inverse standard normal CDF Φ⁻¹(p) for p in (0, 1).
/// Throws std::domain_error outside (0, 1).
double normal_quantile(double p);

}  // namespace linkpad::stats
