// Contextual safe Bayesian online optimization — the one implementation of
// the paper's Algorithm 1.
//
// §4.3 of the paper notes the framework's flexibility: "we could consider
// power-constrained vBSs or an edge computing power budget by including the
// power consumption targets as constraints, while minimizing latency and
// maximizing accuracy... with minimal changes". This engine is that claim
// made concrete: an objective surrogate plus any number of metric
// surrogates with upper/lower-bound constraints, over an arbitrary
// candidate set and context vector. Every period it scores all candidates
// under the GP posteriors (eqs. 3-4), builds the safe set (eq. 8) and runs
// the acquisition (eq. 9 or an ablation) in one sweep over the tracked
// posteriors (FusedAcquisition); update() conditions every surrogate on the
// period's observation.
//
// EdgeBOL's energy formulation (core/edgebol.hpp: scaled cost, clipped
// log-delay, mAP), the alternative formulations (core/formulations.hpp) and
// the joint multi-service agent (core/multi_service_bol.hpp) are all
// configurations of it. A new control knob is a grid dimension plus a
// MetricSpec, not a new engine.

#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/acquisition.hpp"
#include "core/safe_set.hpp"
#include "gp/gp_regressor.hpp"
#include "gp/hyperopt.hpp"
#include "linalg/matrix.hpp"

namespace edgebol::core {

/// Direction of a constraint on a metric surrogate.
enum class BoundKind {
  kUpper,  // metric <= threshold (e.g. delay, power)
  kLower,  // metric >= threshold (e.g. mAP)
};

/// One modeled quantity: GP prior plus the observation transform. Raw
/// observations are clipped, divided by `scale`, and optionally
/// log-transformed before entering the GP; thresholds go through the same
/// monotone transform, so constraint semantics are unchanged below the
/// clip. A threshold above the clip acts as the clip.
struct MetricSpec {
  std::string name;
  gp::GpHyperparams hp;  // must cover context_dims + control_dims
  double scale = 1.0;
  bool log_transform = false;
  double clip = std::numeric_limits<double>::infinity();
  /// Constant GP prior mean in *transformed* units. Safety depends on it:
  /// with a zero prior, an upper-bounded metric (power, delay) looks
  /// trivially safe wherever the GP has no data. Set it to a pessimistic
  /// value (e.g. the plausible maximum) for upper-bounded metrics; zero is
  /// already pessimistic for lower-bounded ones (mAP).
  double prior_mean = 0.0;

  double transform(double raw) const;
  /// Raw units of a transformed value (the clip is not undone).
  double untransform(double transformed) const;
};

struct ConstraintDef {
  std::size_t metric = 0;  // index into the metric list
  BoundKind bound = BoundKind::kUpper;
  double threshold = 0.0;  // in raw metric units
};

/// What the engine decided in one round.
using GenericDecision = FusedDecision;

/// Engine settings.
struct SafeBolOptions {
  double beta_sqrt = 2.5;  // beta^(1/2) of the confidence bounds
  AcquisitionKind acquisition = AcquisitionKind::kSafeLcb;
  /// Observation budget B (0 = unbounded, the paper's setting). Once the
  /// surrogates hold more than B observations, each update evicts one via
  /// an exact Cholesky downdate, so per-period latency and memory stay flat
  /// for unbounded horizons. Must be 0 or at least |S0|.
  std::size_t gp_budget = 0;
  /// Which observation a full budget evicts. The objective surrogate picks
  /// the victim and the same index leaves every surrogate, so they always
  /// condition on the same observation set.
  gp::EvictionPolicy gp_eviction = gp::EvictionPolicy::kOldest;
  /// The per-candidate caches are rebuilt (O(T^2 |X|)) only when the
  /// context moves by more than this in any feature since the cached one
  /// (0 rebuilds on every context change).
  double tracking_tolerance = 0.04;
  /// Threads for cache rebuilds, folds and the surrogates' concurrent
  /// updates, counting the caller (1 = serial; 0 is rejected). Decisions
  /// are bit-identical for any value.
  std::size_t num_threads = 1;
};

/// One conditioning row in raw units: the joint [context, control] input,
/// the objective value and one value per metric (clipped values stay
/// clipped).
struct RawObservation {
  linalg::Vector z;
  double objective = 0.0;
  std::vector<double> metrics;
};

class GenericSafeBol {
 public:
  /// `controls`: one control-feature row per candidate (the context vector
  /// passed to select()/update() is prepended). The objective is minimized;
  /// to maximize, negate observations.
  GenericSafeBol(linalg::Matrix controls, MetricSpec objective,
                 std::vector<MetricSpec> metrics,
                 std::vector<ConstraintDef> constraints,
                 std::vector<std::size_t> initial_safe_set,
                 SafeBolOptions options = {});

  /// Algorithm 1, lines 4-7. kSafeOpt needs the candidates' CSR adjacency
  /// (neighbours of i are adjacency[offsets[i] .. offsets[i+1])). First
  /// runs the cache passes the last update() left pending, the surrogates
  /// concurrently, or, when the context moved past the tracking tolerance,
  /// rebuilds the caches, which drops those passes unrun.
  GenericDecision select(const linalg::Vector& context,
                         std::span<const std::size_t> adjacency_offsets = {},
                         std::span<const std::size_t> adjacency = {});

  /// Algorithm 1, lines 8-13. `metric_values` must match the metric list
  /// (raw units). Every value is transformed before any surrogate changes.
  /// The surrogates' O(T |X|) cache work waits for the next select().
  void update(const linalg::Vector& context, std::size_t index,
              double objective_value,
              const std::vector<double>& metric_values);

  /// Up to `max_count` of the most recent conditioning rows, in order.
  std::vector<RawObservation> export_rows(std::size_t max_count) const;

  /// Condition on rows exported from another engine, applying this
  /// engine's transforms; the budget is enforced afterwards and the caches
  /// rebuild at the next select(). Throws std::invalid_argument (before
  /// anything changes) on a dimension mismatch or an untransformable value.
  void import_rows(std::span<const RawObservation> rows);

  void set_threshold(std::size_t constraint, double threshold);
  double threshold(std::size_t constraint) const;

  std::size_t num_candidates() const { return controls_.rows(); }
  std::size_t num_metrics() const { return specs_.size() - 1; }
  std::size_t num_observations() const { return gps_[0].num_observations(); }
  const std::vector<std::size_t>& initial_safe_set() const { return s0_; }

 private:
  void ensure_tracking(const linalg::Vector& context);
  linalg::Vector joint(const linalg::Vector& context,
                       std::size_t index) const;
  // Runs fn(k) for every surrogate index k: concurrently on the pool, else
  // in order.
  template <typename Fn>
  void for_each_gp(Fn&& fn);
  // Coordinated eviction until no surrogate exceeds the budget.
  void enforce_budget();

  linalg::Matrix controls_;
  std::vector<MetricSpec> specs_;  // [0] objective, [1 + k] metric k
  std::vector<ConstraintDef> constraints_;
  std::vector<std::size_t> s0_;
  SafeBolOptions opts_;
  std::size_t context_dims_ = 0;
  std::shared_ptr<common::ThreadPool> pool_;  // null when num_threads == 1
  std::vector<gp::GpRegressor> gps_;          // parallel to specs_
  std::optional<linalg::Vector> tracked_context_;
  FusedAcquisition acquisition_;
  std::vector<BoundSpec> bound_specs_;  // one slot per constraint, per round
};

}  // namespace edgebol::core
