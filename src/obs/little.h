// Little's-law audit over one interval, shared by the capacity plane's
// per-tick timeline and the alert engine's littles-law rule.
//
//   L   = Δ(occupancy time integral) / dt     (time-average in-system count)
//   λ·W = Δ(completion-charged latency sum) / dt
//
// The two agree in steady state and split apart while a backlog grows or
// drains. Near-idle intervals (both sides below `min_occupancy`) never
// breach: the relative error of ~0 against ~0 is noise, not signal.
#pragma once

#include <algorithm>
#include <cmath>

namespace serve::obs {

/// Default relative |L - λW| / max(L, λW) that breaches.
inline constexpr double kLittleTolerance = 0.15;
/// Default occupancy floor below which an interval never breaches.
inline constexpr double kLittleMinOccupancy = 0.5;

/// One interval's Little's-law audit sample.
struct LittleSample {
  double l = 0.0;         ///< Δ(in-flight time integral) / dt
  double lambda_w = 0.0;  ///< Δ(completion-charged latency sum) / dt
  double deviation = 0.0; ///< |l - lambda_w| / max(l, lambda_w); 0 below the floor
  bool violated = false;  ///< deviation > tolerance at meaningful occupancy
};

/// Audits one interval of length `dt_s` (> 0) from the growth of the two
/// monotone counters over it.
[[nodiscard]] inline LittleSample little_sample(double occupancy_delta, double latency_delta,
                                                double dt_s, double tolerance,
                                                double min_occupancy) noexcept {
  LittleSample s;
  s.l = occupancy_delta / dt_s;
  s.lambda_w = latency_delta / dt_s;
  const double hi = std::max(s.l, s.lambda_w);
  if (hi >= min_occupancy) {
    s.deviation = std::abs(s.l - s.lambda_w) / std::max(hi, 1e-12);
    s.violated = s.deviation > tolerance;
  }
  return s;
}

}  // namespace serve::obs
