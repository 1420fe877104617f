#include "baselines/egreedy.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "core/period_loop.hpp"

namespace edgebol::baselines {

EGreedyAgent::EGreedyAgent(env::ControlGrid grid, core::CostWeights weights,
                           core::ConstraintSpec constraints,
                           EGreedyConfig config, std::uint64_t seed)
    : grid_(std::move(grid)),
      weights_(weights),
      constraints_(constraints),
      cfg_(config),
      cost_scale_(config.cost_scale > 0.0 ? config.cost_scale
                                          : weights.cost(190.0, 7.0)),
      rng_(seed),
      mean_cost_(grid_.size(), 0.0),
      pulls_(grid_.size(), 0),
      epsilon_(config.epsilon_init) {}

std::size_t EGreedyAgent::select(const env::Context&) {
  std::size_t pick;
  if (rng_.bernoulli(epsilon_)) {
    pick = rng_.uniform_index(mean_cost_.size());
  } else {
    pick = 0;
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < mean_cost_.size(); ++i) {
      // Unpulled arms are optimistic (cost 0) so greedy still explores them.
      const double v = pulls_[i] == 0 ? 0.0 : mean_cost_[i];
      if (v < best) {
        best = v;
        pick = i;
      }
    }
  }
  epsilon_ = std::max(cfg_.epsilon_min, epsilon_ * cfg_.epsilon_decay);
  return pick;
}

void EGreedyAgent::update(const env::Context&, std::size_t arm,
                          const env::Measurement& m) {
  if (arm >= mean_cost_.size())
    throw std::invalid_argument("EGreedyAgent: arm out of range");
  const double cost =
      core::violates(constraints_, m)
          ? cfg_.penalty_cost
          : weights_.cost(m.server_power_w, m.bs_power_w) / cost_scale_;
  ++pulls_[arm];
  mean_cost_[arm] +=
      (cost - mean_cost_[arm]) / static_cast<double>(pulls_[arm]);
}

double EGreedyAgent::arm_estimate(std::size_t arm) const {
  if (arm >= mean_cost_.size())
    throw std::invalid_argument("EGreedyAgent: arm out of range");
  return mean_cost_[arm];
}

std::size_t EGreedyAgent::arm_pulls(std::size_t arm) const {
  if (arm >= pulls_.size())
    throw std::invalid_argument("EGreedyAgent: arm out of range");
  return pulls_[arm];
}

}  // namespace edgebol::baselines
