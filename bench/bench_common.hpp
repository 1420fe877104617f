// Shared helpers for the figure-reproduction benchmark binaries.
//
// Every bench prints the same rows/series the corresponding figure in the
// paper reports, as aligned tables on stdout (pipe through `column` or
// redirect to CSV via the printed tables for plotting). Lines labelled
// p10/median/p90 mirror the paper's shaded-percentile presentation.

#pragma once

#include <iostream>
#include <vector>

#include <edgebol/edgebol.hpp>

namespace edgebol::bench {

/// Percentile across repetitions at each time index (series must be equal
/// length).
inline std::vector<double> percentile_series(
    const std::vector<std::vector<double>>& reps, double p) {
  std::vector<double> out;
  if (reps.empty()) return out;
  for (std::size_t t = 0; t < reps.front().size(); ++t) {
    std::vector<double> xs;
    xs.reserve(reps.size());
    for (const auto& r : reps) xs.push_back(r[t]);
    out.push_back(percentile(xs, p));
  }
  return out;
}

/// Mean of the last `n` entries (converged value of a trajectory).
inline double tail_mean(const std::vector<double>& xs, std::size_t n) {
  if (xs.size() < n) n = xs.size();
  double s = 0.0;
  for (std::size_t i = xs.size() - n; i < xs.size(); ++i) s += xs[i];
  return n > 0 ? s / static_cast<double>(n) : 0.0;
}

/// The three constraint settings of §6.3 adapted to this platform's delay
/// distribution (the stringent bound is scaled so it remains barely
/// feasible, as in the paper; see EXPERIMENTS.md).
struct ConstraintSetting {
  const char* label;
  core::ConstraintSpec spec;
};

inline std::vector<ConstraintSetting> fig10_constraint_settings() {
  return {{"lax(d<=0.5,map>=0.4)", {0.5, 0.4}},
          {"medium(d<=0.4,map>=0.5)", {0.4, 0.5}},
          {"stringent(d<=0.32,map>=0.6)", {0.32, 0.6}}};
}

inline std::vector<double> fig10_delta2_values() {
  return {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0};
}

}  // namespace edgebol::bench
