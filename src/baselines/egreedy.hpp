// Epsilon-greedy tabular bandit over the control grid.
//
// A deliberately simple ablation baseline: ignores the context (select and
// update take it so core::run_periods drives it like any other agent),
// keeps a running mean of the constraint-penalized cost per grid policy,
// and explores uniformly with decaying epsilon. Useful to quantify what the
// GP correlation structure buys EdgeBOL (a 14,641-arm table needs far more
// samples than 25 periods to converge).

#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "core/edgebol.hpp"
#include "env/control_grid.hpp"
#include "env/testbed.hpp"

namespace edgebol::baselines {

struct EGreedyConfig {
  double epsilon_init = 1.0;
  double epsilon_decay = 0.995;
  double epsilon_min = 0.05;
  double penalty_cost = 1.5;   // normalized cost charged on violations
  double cost_scale = 0.0;     // 0 -> automatic (as EdgeBOL)
};

class EGreedyAgent {
 public:
  /// One arm per grid policy.
  EGreedyAgent(env::ControlGrid grid, core::CostWeights weights,
               core::ConstraintSpec constraints, EGreedyConfig config,
               std::uint64_t seed);

  std::size_t select(const env::Context& context);
  void update(const env::Context& context, std::size_t arm,
              const env::Measurement& measurement);

  const env::ControlGrid& grid() const { return grid_; }

  double epsilon() const { return epsilon_; }
  double arm_estimate(std::size_t arm) const;
  std::size_t arm_pulls(std::size_t arm) const;

 private:
  env::ControlGrid grid_;
  core::CostWeights weights_;
  core::ConstraintSpec constraints_;
  EGreedyConfig cfg_;
  double cost_scale_;
  Rng rng_;
  std::vector<double> mean_cost_;
  std::vector<std::size_t> pulls_;
  double epsilon_;
};

}  // namespace edgebol::baselines
