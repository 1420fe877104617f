#include "core/multi_service_bol.hpp"

#include <cmath>
#include <stdexcept>

#include "common/stats.hpp"
#include "core/edgebol.hpp"

namespace edgebol::core {

namespace {

// Duplicate a 7-dim (3 context + 4 control) hyperparameter set into the
// 14-dim joint space [c_a, c_b, x_a, x_b].
gp::GpHyperparams widen(const gp::GpHyperparams& base) {
  gp::GpHyperparams hp = base;
  const auto& ls = base.lengthscales;
  hp.lengthscales = {ls[0], ls[1], ls[2], ls[0], ls[1], ls[2],
                     ls[3], ls[4], ls[5], ls[6],
                     ls[3], ls[4], ls[5], ls[6]};
  return hp;
}

// Same, but the metric only depends on *one* service's slice: the other
// service's dimensions get long (uninformative) scales except through the
// shared-resource coupling, which we keep mildly informative.
gp::GpHyperparams widen_one_sided(const gp::GpHyperparams& base,
                                  bool first_service) {
  gp::GpHyperparams hp = widen(base);
  const double kLong = 6.0;
  const std::size_t ctx_off = first_service ? 3 : 0;
  const std::size_t ctl_off = first_service ? 10 : 6;
  for (std::size_t i = 0; i < 3; ++i) hp.lengthscales[ctx_off + i] = kLong;
  for (std::size_t i = 0; i < 4; ++i) {
    // Other service's controls still couple through the GPU/radio; keep
    // them twice the base scale rather than fully flat.
    hp.lengthscales[ctl_off + i] *= 2.0;
  }
  return hp;
}

std::vector<env::ControlPolicy> service_policies(const JointBolConfig& cfg) {
  std::vector<env::ControlPolicy> out;
  const std::size_t k = cfg.levels_per_dim;
  const auto res = linspace(0.25, 1.0, k);
  const auto air = linspace(cfg.airtime_min, cfg.airtime_max, k);
  const auto gpu = linspace(0.0, 1.0, k);
  const auto mcs = linspace(0.0, static_cast<double>(ran::kMaxUlMcs), k);
  for (double r : res) {
    for (double a : air) {
      for (double g : gpu) {
        for (double m : mcs) {
          env::ControlPolicy p;
          p.resolution = r;
          p.airtime = a;
          p.gpu_speed = g;
          p.mcs_cap = static_cast<int>(std::lround(m));
          out.push_back(p);
        }
      }
    }
  }
  return out;
}

}  // namespace

JointEdgeBol::JointEdgeBol(JointBolConfig config)
    : cfg_(config),
      cost_scale_(cfg_.weights.cost(190.0, 7.0)),
      engine_([&] {
        if (cfg_.levels_per_dim < 2)
          throw std::invalid_argument("JointEdgeBol: levels_per_dim < 2");
        if (cfg_.airtime_min <= 0.0 || cfg_.airtime_max > 1.0 ||
            cfg_.airtime_min > cfg_.airtime_max)
          throw std::invalid_argument("JointEdgeBol: bad airtime range");

        const std::vector<env::ControlPolicy> per_service =
            service_policies(cfg_);
        linalg::Matrix controls;
        std::size_t s0_index = 0;
        double best_s0 = -1.0;
        for (const env::ControlPolicy& a : per_service) {
          for (const env::ControlPolicy& b : per_service) {
            if (a.airtime + b.airtime > 1.0 + 1e-9) continue;
            pairs_.push_back({a, b});
            linalg::Vector f = a.to_features();
            const linalg::Vector fb = b.to_features();
            f.insert(f.end(), fb.begin(), fb.end());
            controls.append_row(f);
            // S0: the max-performance symmetric pair — full resolution,
            // GPU speed and MCS, with the largest *equal* airtime split.
            if (a.resolution == b.resolution && a.airtime == b.airtime &&
                a.gpu_speed == b.gpu_speed && a.mcs_cap == b.mcs_cap) {
              const double score = a.resolution + a.gpu_speed +
                                   static_cast<double>(a.mcs_cap) +
                                   (a.airtime <= 0.5 ? a.airtime : -1e9);
              if (score > best_s0) {
                best_s0 = score;
                s0_index = pairs_.size() - 1;
              }
            }
          }
        }
        if (pairs_.empty())
          throw std::invalid_argument("JointEdgeBol: empty candidate set");

        MetricSpec cost;
        cost.name = "cost";
        cost.hp = widen(default_cost_hyperparams());
        cost.scale = cost_scale_;

        MetricSpec delay_a;
        delay_a.name = "delay_a";
        delay_a.hp = widen_one_sided(default_delay_hyperparams(), true);
        delay_a.log_transform = true;
        delay_a.clip = 3.0;
        MetricSpec delay_b = delay_a;
        delay_b.name = "delay_b";
        delay_b.hp = widen_one_sided(default_delay_hyperparams(), false);

        MetricSpec map_a;
        map_a.name = "map_a";
        map_a.hp = widen_one_sided(default_map_hyperparams(), true);
        MetricSpec map_b = map_a;
        map_b.name = "map_b";
        map_b.hp = widen_one_sided(default_map_hyperparams(), false);

        std::vector<ConstraintDef> constraints{
            {0, BoundKind::kUpper, cfg_.constraints_a.d_max_s},
            {1, BoundKind::kUpper, cfg_.constraints_b.d_max_s},
            {2, BoundKind::kLower, cfg_.constraints_a.map_min},
            {3, BoundKind::kLower, cfg_.constraints_b.map_min},
        };

        return GenericSafeBol(std::move(controls), std::move(cost),
                              {std::move(delay_a), std::move(delay_b),
                               std::move(map_a), std::move(map_b)},
                              std::move(constraints), {s0_index},
                              {.beta_sqrt = cfg_.beta_sqrt});
      }()) {}

const JointPolicyPair& JointEdgeBol::pair(std::size_t index) const {
  if (index >= pairs_.size())
    throw std::out_of_range("JointEdgeBol::pair");
  return pairs_[index];
}

JointDecision JointEdgeBol::select(const linalg::Vector& joint_context) {
  const GenericDecision d = engine_.select(joint_context);
  JointDecision out;
  out.index = d.index;
  out.policy = pairs_[d.index];
  out.safe_set_size = d.safe_set_size;
  out.fell_back_to_s0 = d.fell_back_to_s0;
  return out;
}

void JointEdgeBol::update(const linalg::Vector& joint_context,
                          std::size_t index,
                          const env::MultiMeasurement& m) {
  const double cost =
      cfg_.weights.cost(m.server_power_w, m.bs_power_w);
  engine_.update(joint_context, index, cost,
                 {m.service[0].delay_s, m.service[1].delay_s,
                  m.service[0].map, m.service[1].map});
}

}  // namespace edgebol::core
