#include "baselines/random_search.hpp"

#include <stdexcept>

#include "core/period_loop.hpp"

namespace edgebol::baselines {

RandomSearchAgent::RandomSearchAgent(env::ControlGrid grid,
                                     core::CostWeights weights,
                                     core::ConstraintSpec constraints,
                                     std::uint64_t seed,
                                     double explore_fraction)
    : grid_(std::move(grid)),
      weights_(weights),
      constraints_(constraints),
      rng_(seed),
      explore_fraction_(explore_fraction) {
  if (explore_fraction < 0.0 || explore_fraction > 1.0)
    throw std::invalid_argument("RandomSearchAgent: bad explore fraction");
}

std::size_t RandomSearchAgent::select(const env::Context&) {
  if (!best_arm_ || rng_.bernoulli(explore_fraction_)) {
    return rng_.uniform_index(grid_.size());
  }
  return *best_arm_;
}

void RandomSearchAgent::update(const env::Context&, std::size_t arm,
                               const env::Measurement& m) {
  if (arm >= grid_.size())
    throw std::invalid_argument("RandomSearchAgent: arm out of range");
  if (core::violates(constraints_, m)) return;
  const double cost = weights_.cost(m.server_power_w, m.bs_power_w);
  if (!best_arm_ || cost < best_cost_) {
    best_arm_ = arm;
    best_cost_ = cost;
  }
}

double RandomSearchAgent::incumbent_cost() const {
  if (!best_arm_)
    throw std::logic_error("RandomSearchAgent: no feasible arm seen yet");
  return best_cost_;
}

}  // namespace edgebol::baselines
