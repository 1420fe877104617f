#include "baselines/linucb.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/period_loop.hpp"
#include "linalg/cholesky.hpp"

namespace edgebol::baselines {

LinUcbAgent::LinUcbAgent(env::ControlGrid grid, core::CostWeights weights,
                         core::ConstraintSpec constraints,
                         LinUcbConfig config)
    : grid_(std::move(grid)),
      weights_(weights),
      constraints_(constraints),
      cfg_(config),
      cost_scale_(config.cost_scale > 0.0 ? config.cost_scale
                                          : weights.cost(190.0, 7.0)),
      dims_(env::Context::kFeatureDims + env::ControlPolicy::kFeatureDims +
            1),  // +1 bias
      a_(dims_, dims_, 0.0),
      b_(dims_, 0.0) {
  if (cfg_.alpha < 0.0 || cfg_.ridge_lambda <= 0.0)
    throw std::invalid_argument("LinUcbAgent: bad alpha/lambda");
  for (std::size_t i = 0; i < dims_; ++i) a_(i, i) = cfg_.ridge_lambda;
}

linalg::Vector LinUcbAgent::features(const env::Context& c,
                                     const env::ControlPolicy& p) const {
  linalg::Vector phi = env::joint_features(c, p);
  phi.push_back(1.0);  // bias
  return phi;
}

std::size_t LinUcbAgent::select(const env::Context& context) {
  const linalg::CholeskyFactor chol(a_);
  const linalg::Vector theta = chol.solve(b_);

  std::size_t best = 0;
  double best_lcb = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < grid_.size(); ++i) {
    const linalg::Vector phi = features(context, grid_.policy(i));
    const double mean = linalg::dot(theta, phi);
    const linalg::Vector v = chol.solve_lower(phi);
    const double bonus = cfg_.alpha * std::sqrt(linalg::dot(v, v));
    const double lcb = mean - bonus;  // optimism for a *minimization*
    if (lcb < best_lcb) {
      best_lcb = lcb;
      best = i;
    }
  }
  return best;
}

void LinUcbAgent::update(const env::Context& context,
                         std::size_t policy_index,
                         const env::Measurement& m) {
  if (policy_index >= grid_.size())
    throw std::invalid_argument("LinUcbAgent: policy index out of range");
  const double reward =
      core::violates(constraints_, m)
          ? cfg_.penalty_cost
          : weights_.cost(m.server_power_w, m.bs_power_w) / cost_scale_;
  const linalg::Vector phi = features(context, grid_.policy(policy_index));
  for (std::size_t r = 0; r < dims_; ++r) {
    for (std::size_t c = 0; c < dims_; ++c) {
      a_(r, c) += phi[r] * phi[c];
    }
    b_[r] += phi[r] * reward;
  }
  ++observations_;
}

void LinUcbAgent::set_constraints(const core::ConstraintSpec& constraints) {
  constraints_ = constraints;
}

double LinUcbAgent::predict(const env::Context& c,
                            const env::ControlPolicy& p) const {
  const linalg::Vector theta = linalg::spd_solve(a_, b_);
  return linalg::dot(theta, features(c, p));
}

}  // namespace edgebol::baselines
