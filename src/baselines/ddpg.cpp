#include "baselines/ddpg.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/period_loop.hpp"

namespace edgebol::baselines {

namespace {

constexpr std::size_t kContextDims = env::Context::kFeatureDims;   // 3
constexpr std::size_t kActionDims = env::ControlPolicy::kFeatureDims;  // 4

std::vector<std::size_t> layer_sizes(std::size_t in,
                                     const std::vector<std::size_t>& hidden,
                                     std::size_t out) {
  std::vector<std::size_t> sizes;
  sizes.push_back(in);
  sizes.insert(sizes.end(), hidden.begin(), hidden.end());
  sizes.push_back(out);
  return sizes;
}

std::vector<nn::Activation> activations(std::size_t hidden_layers,
                                        nn::Activation last) {
  std::vector<nn::Activation> acts(hidden_layers, nn::Activation::kRelu);
  acts.push_back(last);
  return acts;
}

}  // namespace

DdpgAgent::DdpgAgent(env::GridSpec grid_spec, core::CostWeights weights,
                     core::ConstraintSpec constraints, DdpgConfig config,
                     std::uint64_t seed)
    : spec_(grid_spec),
      weights_(weights),
      constraints_(constraints),
      cfg_(config),
      rng_(seed),
      actor_(layer_sizes(kContextDims, cfg_.actor_hidden, kActionDims),
             activations(cfg_.actor_hidden.size(), nn::Activation::kSigmoid),
             rng_),
      critic_(
          layer_sizes(kContextDims + kActionDims, cfg_.critic_hidden, 1),
          activations(cfg_.critic_hidden.size(), nn::Activation::kIdentity),
          rng_),
      actor_opt_(actor_, {cfg_.actor_lr, 0.9, 0.999, 1e-8}),
      critic_opt_(critic_, {cfg_.critic_lr, 0.9, 0.999, 1e-8}),
      noise_stddev_(cfg_.noise_stddev_init) {
  if (cfg_.batch_size == 0 || cfg_.replay_capacity < cfg_.batch_size)
    throw std::invalid_argument("DdpgAgent: bad replay configuration");
  cost_scale_ = cfg_.cost_scale > 0.0 ? cfg_.cost_scale
                                      : weights_.cost(190.0, 7.0);
  replay_.reserve(std::min<std::size_t>(cfg_.replay_capacity, 4096));
}

env::ControlPolicy DdpgAgent::to_policy(const linalg::Vector& a) const {
  env::ControlPolicy p;
  p.resolution = spec_.resolution_min +
                 a[0] * (spec_.resolution_max - spec_.resolution_min);
  p.airtime =
      spec_.airtime_min + a[1] * (spec_.airtime_max - spec_.airtime_min);
  p.gpu_speed =
      spec_.gpu_speed_min + a[2] * (spec_.gpu_speed_max - spec_.gpu_speed_min);
  const double mcs_f = static_cast<double>(spec_.mcs_min) +
                       a[3] * static_cast<double>(spec_.mcs_max -
                                                  spec_.mcs_min);
  p.mcs_cap = static_cast<int>(std::lround(mcs_f));
  return p;
}

linalg::Vector DdpgAgent::to_action(const env::ControlPolicy& p) const {
  auto ratio = [](double v, double lo, double hi) {
    return hi > lo ? (v - lo) / (hi - lo) : 0.0;
  };
  return {ratio(p.resolution, spec_.resolution_min, spec_.resolution_max),
          ratio(p.airtime, spec_.airtime_min, spec_.airtime_max),
          ratio(p.gpu_speed, spec_.gpu_speed_min, spec_.gpu_speed_max),
          ratio(static_cast<double>(p.mcs_cap),
                static_cast<double>(spec_.mcs_min),
                static_cast<double>(spec_.mcs_max))};
}

env::ControlPolicy DdpgAgent::select(const env::Context& context) {
  linalg::Vector a = actor_.forward(context.to_features());
  for (double& v : a) {
    v = std::clamp(v + rng_.normal(0.0, noise_stddev_), 0.0, 1.0);
  }
  noise_stddev_ =
      std::max(cfg_.noise_stddev_min, noise_stddev_ * cfg_.noise_decay);
  return to_policy(a);
}

void DdpgAgent::update(const env::Context& context,
                       const env::ControlPolicy& policy,
                       const env::Measurement& m) {
  Transition t;
  t.context_features = context.to_features();
  t.action = to_action(policy);
  t.ddpg_cost = core::violates(constraints_, m)
                    ? cfg_.penalty_cost
                    : weights_.cost(m.server_power_w, m.bs_power_w) /
                          cost_scale_;

  if (replay_.size() < cfg_.replay_capacity) {
    replay_.push_back(std::move(t));
  } else {
    replay_[replay_next_] = std::move(t);
    replay_next_ = (replay_next_ + 1) % cfg_.replay_capacity;
  }

  ++periods_seen_;
  if (periods_seen_ >= cfg_.warmup_periods &&
      replay_.size() >= cfg_.batch_size) {
    for (std::size_t u = 0; u < cfg_.updates_per_period; ++u) train();
  }
}

void DdpgAgent::set_constraints(const core::ConstraintSpec& constraints) {
  constraints_ = constraints;
}

void DdpgAgent::train() {
  const std::size_t batch = cfg_.batch_size;

  // Critic: MSE regression of the DDPG cost.
  critic_.zero_grad();
  for (std::size_t b = 0; b < batch; ++b) {
    const Transition& t = replay_[rng_.uniform_index(replay_.size())];
    linalg::Vector in = t.context_features;
    in.insert(in.end(), t.action.begin(), t.action.end());
    const double pred = critic_.forward(in)[0];
    critic_.backward({2.0 * (pred - t.ddpg_cost)});
  }
  critic_opt_.step(static_cast<double>(batch));

  // Actor: descend the critic's predicted cost at the actor's own action.
  actor_.zero_grad();
  critic_.zero_grad();  // critic params must not absorb actor-pass grads
  for (std::size_t b = 0; b < batch; ++b) {
    const Transition& t = replay_[rng_.uniform_index(replay_.size())];
    const linalg::Vector a = actor_.forward(t.context_features);
    linalg::Vector in = t.context_features;
    in.insert(in.end(), a.begin(), a.end());
    critic_.forward(in);
    const linalg::Vector dcost_din = critic_.backward({1.0});
    // Gradient of predicted cost w.r.t. the action part of the input.
    linalg::Vector dcost_da(dcost_din.begin() +
                                static_cast<std::ptrdiff_t>(kContextDims),
                            dcost_din.end());
    actor_.backward(dcost_da);
  }
  critic_.zero_grad();  // discard the pass-through gradients
  actor_opt_.step(static_cast<double>(batch));
}

}  // namespace edgebol::baselines
