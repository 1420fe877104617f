#include "core/edgebol.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace edgebol::core {

namespace {

// The delay surrogate models log(delay): the transform is monotone, so the
// safe-set test is unchanged (log d <= log d_max), while (i) the 4-8%
// multiplicative measurement noise becomes homoscedastic — a GP assumption —
// and (ii) the ~1/airtime blow-up flattens to something a stationary kernel
// represents well. Observations are additionally clipped: starved corners of
// the control space (airtime 10% with MCS cap 0) produce delays of tens of
// seconds, and anything above the clip is equally (and very) unsafe. The
// threshold goes through the same transform, so a d_max above the clip acts
// as the clip (an unclipped one would certify every starved candidate).
constexpr double kDelayClipS = 3.0;

// Fills in what the config leaves to EdgeBol: empty hyperparameters take
// the calibrated defaults, and a non-positive cost scale becomes the
// platform's plausible maximum cost, so scaled observations land in
// ~[0, 1] (the GP prior amplitude).
EdgeBolConfig resolved(EdgeBolConfig cfg) {
  constexpr std::size_t kDims =
      env::Context::kFeatureDims + env::ControlPolicy::kFeatureDims;
  const auto resolve = [](gp::GpHyperparams& hp, gp::GpHyperparams fallback) {
    if (hp.lengthscales.empty()) hp = std::move(fallback);
    if (hp.lengthscales.size() != kDims)
      throw std::invalid_argument("EdgeBol: hyperparams must cover 7 dims");
  };
  resolve(cfg.cost_hp, default_cost_hyperparams());
  resolve(cfg.delay_hp, default_delay_hyperparams());
  resolve(cfg.map_hp, default_map_hyperparams());
  if (!(cfg.cost_scale > 0.0))
    cfg.cost_scale = cfg.weights.cost(/*server max*/ 190.0, /*bs max*/ 7.0);
  return cfg;
}

// The energy formulation on the generic engine: a scaled-cost objective,
// the upper-bounded clipped log-delay and the lower-bounded mAP.
GenericSafeBol make_engine(const env::ControlGrid& grid,
                           const EdgeBolConfig& cfg) {
  MetricSpec cost{"cost", cfg.cost_hp};
  cost.scale = cfg.cost_scale;
  MetricSpec delay{"delay", cfg.delay_hp};
  delay.log_transform = true;
  delay.clip = kDelayClipS;
  MetricSpec map{"map", cfg.map_hp};

  std::vector<std::size_t> s0 = cfg.initial_safe_set;
  if (s0.empty()) s0.push_back(grid.max_performance_index());
  return GenericSafeBol(control_features(grid), std::move(cost),
                        {std::move(delay), std::move(map)},
                        {{0, BoundKind::kUpper, cfg.constraints.d_max_s},
                         {1, BoundKind::kLower, cfg.constraints.map_min}},
                        std::move(s0), static_cast<const SafeBolOptions&>(cfg));
}

}  // namespace

// The defaults below play the role of the paper's pre-production
// hyperparameter fitting (§5): length-scales and signal variances matched to
// the platform's measured smoothness, then held constant while the
// algorithm runs. Safe exploration hinges on them: the amplitude bounds the
// prior uncertainty (so unexplored regions are unsafe but not hopeless) and
// the length-scales control how far one safe observation vouches for its
// neighbours. Dimension order: [n_users, cqi_mean, cqi_var, resolution,
// airtime, gpu_speed, mcs_cap], all normalized.

gp::GpHyperparams default_cost_hyperparams() {
  gp::GpHyperparams hp;
  hp.lengthscales = {1.0, 2.0, 4.0, 2.3, 2.0, 2.8, 1.2};
  hp.amplitude = 0.20;
  hp.noise_variance = 8.0e-4;
  return hp;
}

gp::GpHyperparams default_delay_hyperparams() {
  gp::GpHyperparams hp;
  hp.lengthscales = {0.9, 0.8, 1.0, 2.0, 1.5, 3.0, 1.0};
  hp.amplitude = 0.5;
  hp.noise_variance = 1.5e-3;
  return hp;
}

gp::GpHyperparams default_map_hyperparams() {
  gp::GpHyperparams hp;
  // mAP depends (almost) only on the image resolution; the long scales on
  // the remaining dimensions encode that prior.
  hp.lengthscales = {8.0, 6.0, 4.5, 1.35, 8.0, 8.0, 8.0};
  hp.amplitude = 0.06;
  hp.noise_variance = 4.0e-4;
  return hp;
}

linalg::Matrix control_features(const env::ControlGrid& grid) {
  linalg::Matrix out;
  out.reserve_rows(grid.size(), env::ControlPolicy::kFeatureDims);
  for (const env::ControlPolicy& p : grid.policies())
    out.append_row(p.to_features());
  return out;
}

EdgeBol::EdgeBol(env::ControlGrid grid, EdgeBolConfig config)
    : grid_(std::move(grid)),
      cfg_(resolved(std::move(config))),
      engine_(make_engine(grid_, cfg_)) {}

bool EdgeBol::violates_constraints(const env::Measurement& m) const {
  const ResilienceConfig& r = cfg_.resilience;
  return m.delay_s > cfg_.constraints.d_max_s * r.delay_slack ||
         m.map < cfg_.constraints.map_min - r.map_slack;
}

std::size_t EdgeBol::conservative_index() const {
  // The most conservative assumed-safe control: the S0 member with the
  // highest performance headroom (it buys constraint satisfaction at the
  // highest power cost).
  const std::vector<std::size_t>& s0 = engine_.initial_safe_set();
  std::size_t best = s0.front();
  double best_perf = -1.0;
  for (std::size_t i : s0) {
    const env::ControlPolicy& p = grid_.policy(i);
    const double perf = p.resolution + p.airtime + p.gpu_speed +
                        static_cast<double>(p.mcs_cap) / ran::kMaxUlMcs;
    if (perf > best_perf) {
      best_perf = perf;
      best = i;
    }
  }
  return best;
}

bool EdgeBol::validate_measurement(const env::Measurement& m) {
  const ResilienceConfig& r = cfg_.resilience;
  const double values[] = {m.delay_s, m.map, m.server_power_w, m.bs_power_w};
  for (double v : values) {
    if (!std::isfinite(v)) {
      ++resilience_stats_.kpi_rejected_nan;
      return false;
    }
  }
  if (m.delay_s < 0.0 || m.delay_s > r.max_delay_s || m.map < 0.0 ||
      m.map > 1.0 || m.server_power_w < 0.0 ||
      m.server_power_w > r.max_power_w || m.bs_power_w < 0.0 ||
      m.bs_power_w > r.max_power_w) {
    ++resilience_stats_.kpi_rejected_range;
    return false;
  }
  // Statistical outlier gate against the accepted history: catches meter
  // glitches that stay inside the physical ranges.
  const RunningStats* hist[] = {&accepted_delay_, &accepted_map_,
                                &accepted_server_power_, &accepted_bs_power_};
  for (std::size_t k = 0; k < 4; ++k) {
    const RunningStats& h = *hist[k];
    if (h.count() < r.outlier_min_samples) continue;
    const double sd = h.stddev();
    if (sd <= 1e-9) continue;
    if (std::abs(values[k] - h.mean()) > r.outlier_z * sd) {
      ++resilience_stats_.kpi_rejected_outlier;
      return false;
    }
  }
  accepted_delay_.add(m.delay_s);
  accepted_map_.add(m.map);
  accepted_server_power_.add(m.server_power_w);
  accepted_bs_power_.add(m.bs_power_w);
  return true;
}

Decision EdgeBol::select(const env::Context& context) {
  if (cfg_.resilience.enabled && watchdog_hold_remaining_ > 0) {
    // Watchdog rollback in force: hold the conservative control while the
    // surrogates keep learning from whatever valid KPIs arrive.
    --watchdog_hold_remaining_;
    ++resilience_stats_.watchdog_hold_selects;
    Decision dec;
    dec.policy_index =
        last_safe_index_.value_or(conservative_index());
    dec.policy = grid_.policy(dec.policy_index);
    dec.safe_set_size = engine_.initial_safe_set().size();
    dec.watchdog_hold = true;
    return dec;
  }

  const GenericDecision r = engine_.select(
      context.to_features(), grid_.adjacency_offsets(), grid_.adjacency());
  Decision dec;
  dec.policy_index = r.index;
  dec.safe_set_size = r.safe_set_size;
  dec.fell_back_to_s0 = r.fell_back_to_s0;
  dec.policy = grid_.policy(dec.policy_index);

  // The GP evidence qualified nothing: prefer the policy most recently seen
  // to satisfy the *active* constraints over the assumed-safe S0 corner.
  if (dec.fell_back_to_s0 && cfg_.resilience.enabled && last_safe_index_ &&
      cfg_.acquisition != AcquisitionKind::kGlobalLcb &&
      *last_safe_index_ != dec.policy_index) {
    dec.policy_index = *last_safe_index_;
    dec.policy = grid_.policy(dec.policy_index);
    dec.used_last_safe = true;
    ++resilience_stats_.last_safe_fallbacks;
  }
  return dec;
}

void EdgeBol::observe(const env::Context& context, std::size_t policy_index,
                      const env::Measurement& m) {
  engine_.update(context.to_features(), policy_index,
                 cfg_.weights.cost(m.server_power_w, m.bs_power_w),
                 {m.delay_s, m.map});
}

void EdgeBol::update(const env::Context& context, std::size_t policy_index,
                     const env::Measurement& measurement) {
  if (policy_index >= grid_.size())
    throw std::invalid_argument("EdgeBol::update: policy index out of range");
  if (!cfg_.resilience.enabled) {
    observe(context, policy_index, measurement);
    return;
  }

  // KPI validation gate: never condition the surrogates on garbage.
  if (!validate_measurement(measurement)) return;

  // Watchdog: K consecutive measured violations trip a rollback to the most
  // conservative known-safe control for the configured hold.
  if (violates_constraints(measurement)) {
    if (++consecutive_violations_ >= cfg_.resilience.watchdog_violations) {
      ++resilience_stats_.watchdog_trips;
      watchdog_hold_remaining_ = cfg_.resilience.watchdog_hold_periods;
      consecutive_violations_ = 0;
    }
  } else {
    consecutive_violations_ = 0;
    last_safe_index_ = policy_index;
  }

  try {
    observe(context, policy_index, measurement);
  } catch (const std::exception&) {
    // A failed surrogate update (e.g. a Cholesky extension that stayed
    // non-SPD even after jitter escalation) costs one observation, not the
    // run.
    ++resilience_stats_.gp_update_failures;
  }
}

std::vector<PseudoObservation> EdgeBol::export_observations(
    std::size_t max_count) const {
  std::vector<PseudoObservation> out;
  for (RawObservation& r : engine_.export_rows(max_count)) {
    out.push_back({std::move(r.z), r.objective, r.metrics[0], r.metrics[1]});
  }
  return out;
}

void EdgeBol::import_observations(std::span<const PseudoObservation> rows) {
  std::vector<RawObservation> raw;
  raw.reserve(rows.size());
  for (const PseudoObservation& o : rows) {
    if (o.map < 0.0 || o.map > 1.0)
      throw std::invalid_argument(
          "EdgeBol::import_observations: mAP outside [0, 1]");
    raw.push_back({o.z, o.cost, {o.delay_s, o.map}});
  }
  engine_.import_rows(raw);
}

void EdgeBol::set_constraints(const ConstraintSpec& constraints) {
  if (constraints.d_max_s <= 0.0 || constraints.map_min < 0.0 ||
      constraints.map_min > 1.0)
    throw std::invalid_argument("EdgeBol: invalid constraints");
  cfg_.constraints = constraints;
  engine_.set_threshold(0, constraints.d_max_s);
  engine_.set_threshold(1, constraints.map_min);
}

}  // namespace edgebol::core
