#include "core/formulations.hpp"

#include <stdexcept>

#include "core/edgebol.hpp"

namespace edgebol::core {

namespace {

GenericSafeBol make_engine(const env::ControlGrid& grid,
                           const PowerBudgetConfig& cfg) {
  // Objective: log service delay (same transform rationale as EdgeBOL).
  MetricSpec objective;
  objective.name = "delay";
  objective.hp = default_delay_hyperparams();
  objective.log_transform = true;
  objective.clip = 3.0;

  // Metrics under constraint: server power, BS power, mAP. The two power
  // surrogates reuse the calibrated cost prior (power surfaces have the
  // same smoothness as their weighted sum), scaled to O(1) targets.
  MetricSpec server_power;
  server_power.name = "server_power";
  server_power.hp = default_cost_hyperparams();
  server_power.hp.amplitude = 0.05;   // scaled spread ~0.38..0.97
  server_power.hp.noise_variance = 1.0e-4;
  server_power.scale = 190.0;
  server_power.prior_mean = 1.0;  // pessimistic: assume max draw when unknown

  MetricSpec bs_power;
  bs_power.name = "bs_power";
  bs_power.hp = default_cost_hyperparams();
  bs_power.hp.amplitude = 0.02;       // scaled spread ~0.66..0.95
  bs_power.hp.noise_variance = 5.0e-5;
  bs_power.scale = 7.0;
  bs_power.prior_mean = 1.0;

  MetricSpec map;
  map.name = "map";
  map.hp = default_map_hyperparams();

  std::vector<ConstraintDef> constraints{
      {0, BoundKind::kUpper, cfg.server_power_budget_w},
      {1, BoundKind::kUpper, cfg.bs_power_budget_w},
      {2, BoundKind::kLower, cfg.map_min},
  };

  return GenericSafeBol(control_features(grid), std::move(objective),
                        {std::move(server_power), std::move(bs_power),
                         std::move(map)},
                        std::move(constraints),
                        {power_budget_initial_policy(grid)},
                        {.beta_sqrt = cfg.beta_sqrt});
}

}  // namespace

std::size_t power_budget_initial_policy(const env::ControlGrid& grid) {
  env::ControlPolicy corner;
  corner.resolution = grid.spec().resolution_max;  // max precision
  corner.airtime = grid.spec().airtime_min;        // min radio power
  corner.gpu_speed = grid.spec().gpu_speed_min;    // min server power
  corner.mcs_cap = grid.spec().mcs_max;            // fastest draining
  return grid.nearest_index(corner);
}

PowerBudgetBol::PowerBudgetBol(env::ControlGrid grid, PowerBudgetConfig config)
    : grid_(std::move(grid)), engine_(make_engine(grid_, config)) {
  if (config.server_power_budget_w <= 0.0 || config.bs_power_budget_w <= 0.0)
    throw std::invalid_argument("PowerBudgetBol: non-positive budget");
}

GenericDecision PowerBudgetBol::select(const env::Context& context) {
  return engine_.select(context.to_features());
}

void PowerBudgetBol::update(const env::Context& context,
                            std::size_t policy_index,
                            const env::Measurement& m) {
  engine_.update(context.to_features(), policy_index, m.delay_s,
                 {m.server_power_w, m.bs_power_w, m.map});
}

void PowerBudgetBol::set_server_power_budget(double watts) {
  if (watts <= 0.0)
    throw std::invalid_argument("PowerBudgetBol: non-positive budget");
  engine_.set_threshold(0, watts);
}

void PowerBudgetBol::set_bs_power_budget(double watts) {
  if (watts <= 0.0)
    throw std::invalid_argument("PowerBudgetBol: non-positive budget");
  engine_.set_threshold(1, watts);
}

}  // namespace edgebol::core
