#include "core/generic_bol.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>

namespace edgebol::core {

double MetricSpec::transform(double raw) const {
  const double clipped = std::min(raw, clip);
  const double scaled = clipped / scale;
  if (!log_transform) return scaled;
  if (scaled <= 0.0)
    throw std::invalid_argument("MetricSpec: log of non-positive value in '" +
                                name + "'");
  return std::log(scaled);
}

double MetricSpec::untransform(double transformed) const {
  return (log_transform ? std::exp(transformed) : transformed) * scale;
}

namespace {

gp::GpRegressor make_gp(const MetricSpec& spec) {
  if (spec.hp.lengthscales.empty())
    throw std::invalid_argument("GenericSafeBol: metric '" + spec.name +
                                "' has no hyperparameters");
  if (spec.scale <= 0.0)
    throw std::invalid_argument("GenericSafeBol: metric '" + spec.name +
                                "' has non-positive scale");
  return gp::GpRegressor(spec.hp.make_kernel(), spec.hp.noise_variance);
}

}  // namespace

GenericSafeBol::GenericSafeBol(linalg::Matrix controls, MetricSpec objective,
                               std::vector<MetricSpec> metrics,
                               std::vector<ConstraintDef> constraints,
                               std::vector<std::size_t> initial_safe_set,
                               SafeBolOptions options)
    : controls_(std::move(controls)),
      constraints_(std::move(constraints)),
      s0_(std::move(initial_safe_set)),
      opts_(options) {
  if (controls_.empty())
    throw std::invalid_argument("GenericSafeBol: no candidates");
  if (opts_.beta_sqrt < 0.0)
    throw std::invalid_argument("GenericSafeBol: beta must be >= 0");
  if (opts_.num_threads == 0)
    throw std::invalid_argument(
        "GenericSafeBol: num_threads must be >= 1 — it counts the calling "
        "thread (use 1 for a serial engine)");
  for (const ConstraintDef& c : constraints_) {
    if (c.metric >= metrics.size())
      throw std::invalid_argument("GenericSafeBol: constraint metric index");
  }
  if (s0_.empty())
    throw std::invalid_argument("GenericSafeBol: S0 must not be empty");
  for (std::size_t i : s0_) {
    if (i >= controls_.rows())
      throw std::invalid_argument("GenericSafeBol: S0 index out of range");
  }
  if (opts_.gp_budget != 0 && opts_.gp_budget < s0_.size())
    throw std::invalid_argument(
        "GenericSafeBol: gp_budget (" + std::to_string(opts_.gp_budget) +
        ") is below the safe-seed size |S0| (" + std::to_string(s0_.size()) +
        ") — the budget must be able to retain every seed observation; use 0 "
        "for unbounded");
  const std::size_t dims = objective.hp.lengthscales.size();
  if (dims <= controls_.cols())
    throw std::invalid_argument(
        "GenericSafeBol: hyperparameters must cover context + control dims");
  context_dims_ = dims - controls_.cols();

  specs_.reserve(metrics.size() + 1);
  specs_.push_back(std::move(objective));
  for (MetricSpec& spec : metrics) {
    if (spec.hp.lengthscales.size() != dims)
      throw std::invalid_argument(
          "GenericSafeBol: inconsistent metric dimensionality");
    specs_.push_back(std::move(spec));
  }
  if (opts_.num_threads > 1)
    pool_ = std::make_shared<common::ThreadPool>(opts_.num_threads);
  gps_.reserve(specs_.size());
  for (const MetricSpec& spec : specs_) {
    gps_.push_back(make_gp(spec));
    gps_.back().set_thread_pool(pool_);
  }
  acquisition_.configure(controls_.rows(), s0_);
  bound_specs_.resize(constraints_.size());
}

linalg::Vector GenericSafeBol::joint(const linalg::Vector& context,
                                     std::size_t index) const {
  linalg::Vector z = context;
  const linalg::Vector x = controls_.row(index);
  z.insert(z.end(), x.begin(), x.end());
  return z;
}

template <typename Fn>
void GenericSafeBol::for_each_gp(Fn&& fn) {
  if (!pool_) {
    for (std::size_t k = 0; k < gps_.size(); ++k) fn(k);
    return;
  }
  std::vector<std::function<void()>> tasks;
  tasks.reserve(gps_.size());
  for (std::size_t k = 0; k < gps_.size(); ++k)
    tasks.push_back([&fn, k] { fn(k); });
  // sync: task k touches only surrogate k (which may fan out over the same
  // pool); whatever fn reads is shared read-only, and run_tasks joins every
  // task and rethrows the first error.
  pool_->run_tasks(tasks);
}

void GenericSafeBol::ensure_tracking(const linalg::Vector& context) {
  if (context.size() != context_dims_)
    throw std::invalid_argument("GenericSafeBol: context dimension mismatch");
  if (tracked_context_) {
    double max_diff = 0.0;
    for (std::size_t i = 0; i < context.size(); ++i) {
      max_diff = std::max(max_diff,
                          std::abs((*tracked_context_)[i] - context[i]));
    }
    if (max_diff <= opts_.tracking_tolerance) {
      // The caches stand: run the cache passes the last update left
      // pending, the surrogates concurrently (each block-parallel), before
      // the decision reads them one surrogate at a time.
      for_each_gp([&](std::size_t k) { gps_[k].apply_pending_pass(); });
      return;
    }
  }
  // One packed [context, control] candidate set, feature-major, shared by
  // every surrogate; their O(T^2 |X|) cache rebuilds run concurrently and
  // drop the pending passes unrun.
  const std::size_t m = controls_.rows();
  const std::size_t cd = controls_.cols();
  auto cands =
      std::make_shared<linalg::FeatureMajorPoints>(context_dims_ + cd, m);
  for (std::size_t k = 0; k < context_dims_ + cd; ++k) {
    for (std::size_t j = 0; j < m; ++j) {
      cands->at(j, k) =
          k < context_dims_ ? context[k] : controls_(j, k - context_dims_);
    }
  }
  const std::shared_ptr<const linalg::FeatureMajorPoints> shared =
      std::move(cands);
  for_each_gp([&](std::size_t k) { gps_[k].track_candidates(shared); });
  tracked_context_ = context;
}

GenericDecision GenericSafeBol::select(
    const linalg::Vector& context,
    std::span<const std::size_t> adjacency_offsets,
    std::span<const std::size_t> adjacency) {
  ensure_tracking(context);
  // Threshold transforms and prior-mean offsets are rebuilt per round, so
  // set_threshold() takes effect immediately.
  for (std::size_t i = 0; i < constraints_.size(); ++i) {
    const ConstraintDef& c = constraints_[i];
    const MetricSpec& spec = specs_[1 + c.metric];
    bound_specs_[i] = BoundSpec{&gps_[1 + c.metric],
                                c.bound == BoundKind::kUpper,
                                spec.transform(c.threshold), spec.prior_mean};
  }
  return acquisition_.decide(opts_.acquisition, bound_specs_, gps_[0],
                             opts_.beta_sqrt, adjacency_offsets, adjacency);
}

void GenericSafeBol::enforce_budget() {
  const std::size_t budget = opts_.gp_budget;
  if (budget == 0) return;
  // The objective surrogate picks the victim serially (so budgeted
  // trajectories are bit-identical for any num_threads) and the same index
  // leaves every surrogate. A failed add (non-SPD extension) rolls back
  // inside that surrogate only, so a surrogate can hold one observation
  // more or fewer than its peers; the guard lets a degraded engine still
  // converge to the budget instead of throwing.
  while (gps_[0].num_observations() > budget) {
    const std::size_t victim = gps_[0].eviction_candidate(opts_.gp_eviction);
    for_each_gp([&](std::size_t k) {
      gp::GpRegressor& g = gps_[k];
      if (g.num_observations() > budget && victim < g.num_observations())
        g.remove_observation(victim);
    });
  }
}

void GenericSafeBol::update(const linalg::Vector& context, std::size_t index,
                            double objective_value,
                            const std::vector<double>& metric_values) {
  if (index >= controls_.rows())
    throw std::invalid_argument("GenericSafeBol: index out of range");
  if (metric_values.size() != num_metrics())
    throw std::invalid_argument("GenericSafeBol: metric count mismatch");
  if (context.size() != context_dims_)
    throw std::invalid_argument("GenericSafeBol: context dimension mismatch");
  std::vector<double> targets(gps_.size());
  for (std::size_t k = 0; k < gps_.size(); ++k) {
    const double raw = k == 0 ? objective_value : metric_values[k - 1];
    targets[k] = specs_[k].transform(raw) - specs_[k].prior_mean;
  }
  const linalg::Vector z = joint(context, index);
  for_each_gp([&](std::size_t k) { gps_[k].add(z, targets[k]); });
  enforce_budget();
}

std::vector<RawObservation> GenericSafeBol::export_rows(
    std::size_t max_count) const {
  std::size_t n = gps_[0].num_observations();
  for (const gp::GpRegressor& g : gps_) n = std::min(n, g.num_observations());
  const std::size_t take = std::min(max_count, n);
  std::vector<RawObservation> out(take);
  for (std::size_t r = 0; r < take; ++r) {
    const std::size_t i = n - take + r;
    out[r].z = gps_[0].inputs()[i];
    out[r].objective =
        specs_[0].untransform(gps_[0].targets()[i] + specs_[0].prior_mean);
    for (std::size_t k = 1; k < gps_.size(); ++k) {
      out[r].metrics.push_back(
          specs_[k].untransform(gps_[k].targets()[i] + specs_[k].prior_mean));
    }
  }
  return out;
}

void GenericSafeBol::import_rows(std::span<const RawObservation> rows) {
  const std::size_t dims = context_dims_ + controls_.cols();
  std::vector<std::vector<double>> targets(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const RawObservation& o = rows[r];
    if (o.z.size() != dims || o.metrics.size() != num_metrics())
      throw std::invalid_argument(
          "GenericSafeBol::import_rows: dimension mismatch");
    targets[r].resize(gps_.size());
    for (std::size_t k = 0; k < gps_.size(); ++k) {
      const double raw = k == 0 ? o.objective : o.metrics[k - 1];
      if (!std::isfinite(raw))
        throw std::invalid_argument(
            "GenericSafeBol::import_rows: non-finite value");
      targets[r][k] = specs_[k].transform(raw) - specs_[k].prior_mean;
    }
  }
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for_each_gp(
        [&](std::size_t k) { gps_[k].add(rows[r].z, targets[r][k]); });
  }
  enforce_budget();
  tracked_context_.reset();  // caches no longer match the data
}

void GenericSafeBol::set_threshold(std::size_t constraint, double threshold) {
  if (constraint >= constraints_.size())
    throw std::invalid_argument("GenericSafeBol: constraint index");
  constraints_[constraint].threshold = threshold;
}

double GenericSafeBol::threshold(std::size_t constraint) const {
  if (constraint >= constraints_.size())
    throw std::invalid_argument("GenericSafeBol: constraint index");
  return constraints_[constraint].threshold;
}

}  // namespace edgebol::core
