// EdgeBOL — Algorithm 1: contextual safe Bayesian online learning for joint
// vBS + edge-AI orchestration.
//
// EdgeBol is the energy formulation of the one safe-BO engine
// (core::GenericSafeBol): the objective is the cost u = delta1 * p_server +
// delta2 * p_bs (eq. 1) divided by a scale, and the two constraint metrics
// are the clipped log service delay (upper-bounded) and the mAP
// (lower-bounded). Every time period the engine scores the entire control
// grid under the GP posteriors (eqs. 3-4), builds the safe set (eq. 8),
// picks the safe LCB minimizer (eq. 9), and conditions the surrogates on
// the resulting noisy KPI observations. On top of the engine EdgeBol keeps
// the resilience layer: the KPI gate, the violation watchdog and the
// last-safe fallback.
//
// Constraint thresholds may change at runtime (the operator relaxing an SLA,
// Fig. 14): safe sets are recomputed from the surrogates, so adaptation is
// immediate — no re-learning. Kernel hyperparameters, per the paper, are
// fitted on prior data (see gp::fit_hyperparameters) and held constant while
// the algorithm runs.

#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "common/stats.hpp"
#include "core/generic_bol.hpp"
#include "core/safe_set.hpp"
#include "env/control_grid.hpp"
#include "env/testbed.hpp"
#include "gp/gp_regressor.hpp"
#include "gp/hyperopt.hpp"

namespace edgebol::core {

/// Energy prices of eq. (1), in monetary units per watt.
struct CostWeights {
  double delta1 = 1.0;  // edge-server power price
  double delta2 = 1.0;  // vBS power price

  double cost(double server_power_w, double bs_power_w) const {
    return delta1 * server_power_w + delta2 * bs_power_w;
  }
};

/// Hardening of the learning loop against faulty feedback (all opt-in; the
/// master switch off reproduces the paper's fragile loop exactly).
struct ResilienceConfig {
  bool enabled = false;

  // --- KPI validation gate (applied before GP conditioning) ---
  // NaN/Inf KPIs are always rejected when the gate is on; these bound the
  // physically plausible ranges, and the z-test rejects statistical
  // outliers (spiked meter readings) against the running statistics of
  // previously accepted samples.
  static constexpr double max_delay_s = 60.0;
  static constexpr double max_power_w = 2000.0;
  static constexpr double outlier_z = 8.0;
  static constexpr std::size_t outlier_min_samples = 12;

  // --- Violation watchdog ---
  // After `watchdog_violations` consecutive measured constraint violations
  // the agent rolls back to the most conservative assumed-safe control for
  // `watchdog_hold_periods` periods (learning continues meanwhile). The
  // slacks forgive observation noise in this control rule; violation counts
  // use core::violates on the noise-free outcome, with no slack.
  static constexpr int watchdog_violations = 4;
  static constexpr int watchdog_hold_periods = 3;
  static constexpr double delay_slack = 1.05;
  static constexpr double map_slack = 0.03;
};

/// What the resilience layer did so far (all zero in a healthy run).
struct ResilienceStats {
  std::size_t kpi_rejected_nan = 0;
  std::size_t kpi_rejected_range = 0;
  std::size_t kpi_rejected_outlier = 0;
  std::size_t gp_update_failures = 0;
  std::size_t watchdog_trips = 0;
  std::size_t watchdog_hold_selects = 0;
  std::size_t last_safe_fallbacks = 0;

  std::size_t kpi_rejected_total() const {
    return kpi_rejected_nan + kpi_rejected_range + kpi_rejected_outlier;
  }
};

/// EdgeBol's settings. The engine's own (beta_sqrt, acquisition, gp_budget,
/// gp_eviction, tracking_tolerance, num_threads) come from SafeBolOptions;
/// the cost surrogate is the objective that picks each eviction's victim.
struct EdgeBolConfig : SafeBolOptions {
  CostWeights weights{};
  /// The delay surrogate clips observations at 3 s (starved corners of the
  /// grid are equally, and very, unsafe above it), and the threshold goes
  /// through the same transform: a delay threshold above the clip acts as
  /// the clip.
  ConstraintSpec constraints{};

  /// GP hyperparameters per surrogate (cost / delay / mAP). When a vector
  /// is empty, calibrated defaults over the 7-dim normalized joint space
  /// are used. Fit them from prior data with gp::fit_hyperparameters for a
  /// specific deployment.
  gp::GpHyperparams cost_hp{};
  gp::GpHyperparams delay_hp{};
  gp::GpHyperparams map_hp{};

  /// Scale dividing raw cost observations so GP targets are O(1). 0 picks
  /// an automatic scale from the weights and the platform's power ranges.
  /// Delay observations are not scaled: seconds are already O(1).
  double cost_scale = 0.0;

  /// Initial safe set S0 (grid indices). Empty selects the grid's
  /// maximum-performance corner, per §5 (Practical Issues).
  std::vector<std::size_t> initial_safe_set{};

  /// Degraded-mode hardening (KPI gate, watchdog, last-safe fallback).
  ResilienceConfig resilience{};
};

/// One conditioning row of the three surrogates in PORTABLE units: the joint
/// [context, control] input plus the raw (untransformed) KPI-equivalent
/// targets. This is the one evidence format: the pre-production warm start
/// of §4.2 and the cross-cell transfer payload — a new cell warm-starts by
/// importing rows exported from established neighbours, which conditions
/// its surrogates exactly as update() would (so the GP evidence, and with
/// it the safe set, carries over). Raw units make the rows valid across
/// agents with different cost weights or scales.
struct PseudoObservation {
  linalg::Vector z;        // joint features (Context + ControlPolicy dims)
  double cost = 0.0;       // u = delta1 p_server + delta2 p_bs (monetary)
  double delay_s = 0.0;    // service delay (clipped at export)
  double map = 0.0;        // mAP in [0, 1]
};

/// What the agent decided in one time period.
struct Decision {
  std::size_t policy_index = 0;
  env::ControlPolicy policy{};
  std::size_t safe_set_size = 0;
  bool fell_back_to_s0 = false;   // constraints infeasible under the GPs
  bool watchdog_hold = false;     // conservative rollback is in force
  bool used_last_safe = false;    // fallback chose the last known-safe policy
};

class EdgeBol {
 public:
  EdgeBol(env::ControlGrid grid, EdgeBolConfig config);

  /// Algorithm 1, lines 4-7: given the observed context, compute posteriors
  /// over the whole grid, build the safe set, and pick the safe LCB
  /// minimizer.
  Decision select(const env::Context& context);

  /// Algorithm 1, lines 8-13: condition the surrogates on the KPIs observed
  /// at the end of the period.
  void update(const env::Context& context, std::size_t policy_index,
              const env::Measurement& measurement);

  /// Export up to `max_count` of the MOST RECENT conditioning rows in
  /// portable units — the cross-cell transfer payload (see
  /// PseudoObservation). Order is preserved, so importing a full export into
  /// a same-configured fresh agent reproduces this agent's posterior (up to
  /// one rounding round-trip through the unit conversion).
  std::vector<PseudoObservation> export_observations(
      std::size_t max_count) const;

  /// Condition the surrogates on rows exported from another agent or
  /// gathered in pre-production, applying this agent's own scales and
  /// transforms (update()-style, without a Measurement or the resilience
  /// gate). The observation budget is enforced afterwards and tracked caches
  /// reset. Throws std::invalid_argument, before anything changes, on a
  /// dimension mismatch, non-finite or non-positive-delay targets, or an
  /// mAP outside [0, 1].
  void import_observations(std::span<const PseudoObservation> rows);

  /// Runtime SLA change: takes effect at the next select().
  void set_constraints(const ConstraintSpec& constraints);
  const ConstraintSpec& constraints() const { return cfg_.constraints; }
  const CostWeights& weights() const { return cfg_.weights; }

  /// What the resilience layer rejected/recovered so far.
  const ResilienceStats& resilience_stats() const { return resilience_stats_; }

  /// The most recent selected policy whose measurement satisfied both
  /// active constraints (grid index), if any.
  std::optional<std::size_t> last_known_safe_index() const {
    return last_safe_index_;
  }

  const env::ControlGrid& grid() const { return grid_; }
  std::size_t num_observations() const { return engine_.num_observations(); }
  /// The configuration in force, resolved at construction: the three
  /// hyperparameter sets and the cost scale hold the values in use, never
  /// the "pick a default" empties and zero.
  const EdgeBolConfig& config() const { return cfg_; }

 private:
  void observe(const env::Context& context, std::size_t policy_index,
               const env::Measurement& measurement);
  bool validate_measurement(const env::Measurement& m);
  bool violates_constraints(const env::Measurement& m) const;
  std::size_t conservative_index() const;

  env::ControlGrid grid_;
  EdgeBolConfig cfg_;
  // Objective: scaled cost; metrics: [delay, mAP]; constraints: [delay
  // upper, mAP lower].
  GenericSafeBol engine_;

  // Resilience state (untouched unless cfg_.resilience.enabled).
  ResilienceStats resilience_stats_;
  std::optional<std::size_t> last_safe_index_;
  int consecutive_violations_ = 0;
  int watchdog_hold_remaining_ = 0;
  RunningStats accepted_delay_;
  RunningStats accepted_map_;
  RunningStats accepted_server_power_;
  RunningStats accepted_bs_power_;
};

/// Calibrated default hyperparameters for each surrogate over the 7-dim
/// normalized joint space (used when EdgeBolConfig leaves them empty).
gp::GpHyperparams default_cost_hyperparams();
gp::GpHyperparams default_delay_hyperparams();
gp::GpHyperparams default_map_hyperparams();

/// The engine's candidate matrix for a grid: one ControlPolicy feature row
/// per policy, in index order.
linalg::Matrix control_features(const env::ControlGrid& grid);

}  // namespace edgebol::core
