// Safe-set estimation (paper eq. 8).
//
// A control x is deemed safe for context c_t when the GP confidence bounds
// of both constraint functions stay on the right side of the thresholds:
//   mu_d(c_t, x) + beta * sigma_d(c_t, x) <= d_max        (delay UCB)
//   mu_rho(c_t, x) - beta * sigma_rho(c_t, x) >= rho_min   (mAP LCB)
// The initial safe set S0 (maximum-performance policies) is always included,
// which is also the fallback when the constraints are infeasible (§5,
// Practical Issues).
//
// The decision path (FusedAcquisition::decide, core/acquisition.hpp)
// evaluates every candidate's bounds each round from the tracked posterior,
// one BoundSpec per constraint; compute_safe_set is the straight-line scan
// over materialized predictions that the tests compare it against.

#pragma once

#include <cstddef>
#include <vector>

#include "gp/gp_regressor.hpp"

namespace edgebol::core {

/// The service-level constraints of problem (2).
struct ConstraintSpec {
  double d_max_s = 0.4;   // maximum service delay
  double map_min = 0.5;   // minimum mAP (rho_min)
};

/// Compute the safe set over a candidate list given per-candidate posterior
/// marginals of the delay and mAP surrogates (same index order), the
/// thresholds (already in the same scale as the predictions), and S0.
///
/// Returns sorted, de-duplicated candidate indices.
std::vector<std::size_t> compute_safe_set(
    const std::vector<gp::Prediction>& delay_posterior,
    const std::vector<gp::Prediction>& map_posterior, double d_max,
    double map_min, double beta, const std::vector<std::size_t>& s0);

/// One confidence-bound constraint over a GP's tracked candidates:
///   upper:  (tracked_mean + offset) + beta * tracked_stddev <= threshold
///   lower:  (tracked_mean + offset) - beta * tracked_stddev >= threshold
/// `offset` is the constant prior mean the engine adds back to the zero-mean
/// GP (MetricSpec::prior_mean); `threshold` is already in transformed
/// (GP-target) units.
struct BoundSpec {
  gp::GpRegressor* gp = nullptr;
  bool upper = true;
  double threshold = 0.0;
  double offset = 0.0;
};

}  // namespace edgebol::core
