#include "core/safe_set.hpp"

#include <algorithm>
#include <stdexcept>

namespace edgebol::core {

std::vector<std::size_t> compute_safe_set(
    const std::vector<gp::Prediction>& delay_posterior,
    const std::vector<gp::Prediction>& map_posterior, double d_max,
    double map_min, double beta, const std::vector<std::size_t>& s0) {
  if (delay_posterior.size() != map_posterior.size())
    throw std::invalid_argument("compute_safe_set: posterior size mismatch");
  if (beta < 0.0)
    throw std::invalid_argument("compute_safe_set: beta must be >= 0");

  std::vector<std::size_t> safe;
  for (std::size_t i = 0; i < delay_posterior.size(); ++i) {
    const gp::Prediction& d = delay_posterior[i];
    const gp::Prediction& m = map_posterior[i];
    const bool delay_ok = d.mean + beta * d.stddev() <= d_max;
    const bool map_ok = m.mean - beta * m.stddev() >= map_min;
    if (delay_ok && map_ok) safe.push_back(i);
  }

  for (std::size_t i : s0) {
    if (i >= delay_posterior.size())
      throw std::invalid_argument("compute_safe_set: S0 index out of range");
    safe.push_back(i);
  }
  std::sort(safe.begin(), safe.end());
  safe.erase(std::unique(safe.begin(), safe.end()), safe.end());
  return safe;
}

}  // namespace edgebol::core
