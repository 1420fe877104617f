#include "baselines/oracle.hpp"

#include <limits>

#include "core/period_loop.hpp"

namespace edgebol::baselines {

OracleResult exhaustive_oracle(const env::Testbed& testbed,
                               const env::ControlGrid& grid,
                               const core::CostWeights& weights,
                               const core::ConstraintSpec& constraints) {
  OracleResult best;
  double best_cost = std::numeric_limits<double>::infinity();

  for (std::size_t i = 0; i < grid.size(); ++i) {
    const env::ControlPolicy& p = grid.policy(i);
    const env::Measurement m = testbed.expected(p);
    if (core::violates(constraints, m)) continue;
    const double cost = weights.cost(m.server_power_w, m.bs_power_w);
    if (cost < best_cost) {
      best_cost = cost;
      best.feasible = true;
      best.policy_index = i;
      best.policy = p;
      best.cost = cost;
      best.expected = m;
    }
  }

  if (!best.feasible) {
    best.policy_index = grid.max_performance_index();
    best.policy = grid.policy(best.policy_index);
    best.expected = testbed.expected(best.policy);
    best.cost = weights.cost(best.expected.server_power_w,
                             best.expected.bs_power_w);
  }
  return best;
}

}  // namespace edgebol::baselines
