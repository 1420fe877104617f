// Alternative problem formulations (§4.3).
//
// The primary formulation (core/edgebol.hpp) minimizes the energy cost under
// delay and precision constraints. The paper points out the dual: a vBS
// with a hard power envelope (PoE/solar) or a capped edge-compute budget,
// where the operator instead *minimizes service delay* subject to
//   p_server <= P_server_budget,  p_bs <= P_bs_budget,  mAP >= rho_min.
// PowerBudgetBol is that formulation, assembled from the generic engine
// with the same calibrated surrogate priors.

#pragma once

#include "core/generic_bol.hpp"
#include "env/control_grid.hpp"
#include "env/testbed.hpp"

namespace edgebol::core {

struct PowerBudgetConfig {
  double server_power_budget_w = 130.0;
  double bs_power_budget_w = 5.5;
  double map_min = 0.5;
  double beta_sqrt = 2.5;
};

class PowerBudgetBol {
 public:
  PowerBudgetBol(env::ControlGrid grid, PowerBudgetConfig config);

  GenericDecision select(const env::Context& context);
  void update(const env::Context& context, std::size_t policy_index,
              const env::Measurement& measurement);

  const env::ControlPolicy& policy(std::size_t index) const {
    return grid_.policy(index);
  }
  const env::ControlGrid& grid() const { return grid_; }

  /// Runtime budget changes (e.g. battery state of charge dropping).
  void set_server_power_budget(double watts);
  void set_bs_power_budget(double watts);

 private:
  env::ControlGrid grid_;
  GenericSafeBol engine_;
};

/// The S0 of the power-budget formulation for a given grid: the grid
/// policy closest to {resolution max, airtime min, gpu 0, mcs max}, the
/// lowest-power corner that still maximizes precision.
std::size_t power_budget_initial_policy(const env::ControlGrid& grid);

}  // namespace edgebol::core
