// Uniform random search over the control grid, remembering the best
// feasible policy seen so far. The weakest sensible baseline: no model, no
// structure — pure exploration with memory. It ignores the context, which
// select and update take so core::run_periods drives it like any other
// agent.

#pragma once

#include <cstddef>
#include <optional>

#include "common/rng.hpp"
#include "core/edgebol.hpp"
#include "env/control_grid.hpp"
#include "env/testbed.hpp"

namespace edgebol::baselines {

class RandomSearchAgent {
 public:
  /// One arm per grid policy.
  RandomSearchAgent(env::ControlGrid grid, core::CostWeights weights,
                    core::ConstraintSpec constraints, std::uint64_t seed,
                    double explore_fraction = 0.5);

  /// With probability explore_fraction (or always, before any feasible arm
  /// is known) samples a uniform arm; otherwise replays the incumbent.
  std::size_t select(const env::Context& context);
  void update(const env::Context& context, std::size_t arm,
              const env::Measurement& measurement);

  const env::ControlGrid& grid() const { return grid_; }

  std::optional<std::size_t> incumbent() const { return best_arm_; }
  double incumbent_cost() const;

 private:
  env::ControlGrid grid_;
  core::CostWeights weights_;
  core::ConstraintSpec constraints_;
  Rng rng_;
  double explore_fraction_;
  std::optional<std::size_t> best_arm_;
  double best_cost_ = 0.0;
};

}  // namespace edgebol::baselines
