#include "core/fleet_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

namespace edgebol::core {

namespace {

// Floor on a cell's shard-balance weight (ms). Keeps never-measured cells
// from collapsing a partition segment to zero width.
constexpr double kMinWeightMs = 1e-3;

// Inverse-distance weighting offset: donors at (numerically) zero context
// distance get a large but finite weight instead of a division blow-up.
constexpr double kDistEps = 1e-3;

// Contiguous cell ranges per batch dispatch, per pool thread: enough slack
// for the work-helping pool to balance stragglers.
constexpr std::size_t kShardsPerThread = 4;

// Pseudo-observations imported per donor by add_cell_warm (most recent
// first).
constexpr std::size_t kTransferMaxObs = 24;

// EMA factor for the per-cell decision-cost estimate driving shard
// boundaries (higher = adapt faster, noisier).
constexpr double kLoadEma = 0.2;

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

}  // namespace

FleetEngine::FleetEngine(env::ControlGrid grid, FleetEngineConfig config)
    : grid_(std::move(grid)), cfg_(config) {
  if (cfg_.num_threads == 0)
    throw std::invalid_argument("FleetEngine: num_threads must be >= 1");
  shards_ = kShardsPerThread * cfg_.num_threads;
  if (cfg_.num_threads > 1)
    pool_ = std::make_shared<common::ThreadPool>(cfg_.num_threads);
}

std::size_t FleetEngine::add_cell() { return add_cell(cfg_.cell); }

std::size_t FleetEngine::add_cell(EdgeBolConfig config) {
  // Fleet parallelism is across cells; a per-cell pool would oversubscribe
  // the machine and buy nothing (each agent's work is serial per batch).
  config.num_threads = 1;
  cells_.emplace_back(EdgeBol(grid_, std::move(config)));
  return cells_.size() - 1;
}

std::size_t FleetEngine::add_cell_warm(const env::Context& expected) {
  donors_.clear();
  donor_dist_.clear();
  const linalg::Vector target = expected.to_features();

  // K nearest established cells by context signature. Ties break on id, so
  // donor choice is deterministic.
  for (std::size_t id = 0; id < cells_.size(); ++id) {
    const CellState& cs = cells_[id];
    if (cs.ctx_count == 0) continue;
    if (cs.agent.num_observations() < cfg_.transfer_min_obs) continue;
    double d2 = 0.0;
    for (std::size_t k = 0; k < env::Context::kFeatureDims; ++k) {
      const double mean = cs.ctx_sum[k] / static_cast<double>(cs.ctx_count);
      const double diff = mean - target[k];
      d2 += diff * diff;
    }
    const double dist = std::sqrt(d2);
    // Insertion sort into the bounded donor list (K is tiny).
    std::size_t pos = donors_.size();
    while (pos > 0 && dist < donor_dist_[pos - 1]) --pos;
    if (pos >= cfg_.transfer_k) continue;
    donors_.insert(donors_.begin() + static_cast<std::ptrdiff_t>(pos), id);
    donor_dist_.insert(donor_dist_.begin() + static_cast<std::ptrdiff_t>(pos),
                       dist);
    if (donors_.size() > cfg_.transfer_k) {
      donors_.pop_back();
      donor_dist_.pop_back();
    }
  }
  if (donors_.empty()) return add_cell();  // cold fallback, donors_ empty

  // Inverse-distance blend of the donors' resolved kernel hyperparameters,
  // per surrogate. Family and vector layout come from the nearest donor;
  // all cells share the 7-dim normalized joint space, so layouts agree.
  const auto blend = [&](gp::GpHyperparams EdgeBolConfig::* member) {
    gp::GpHyperparams out = cells_[donors_[0]].agent.config().*member;
    const std::size_t dims = out.lengthscales.size();
    std::fill(out.lengthscales.begin(), out.lengthscales.end(), 0.0);
    out.amplitude = 0.0;
    out.noise_variance = 0.0;
    double wsum = 0.0;
    for (std::size_t k = 0; k < donors_.size(); ++k) {
      const gp::GpHyperparams& hp = cells_[donors_[k]].agent.config().*member;
      if (hp.lengthscales.size() != dims) continue;  // defensive: skip misfit
      const double w = 1.0 / (donor_dist_[k] + kDistEps);
      wsum += w;
      for (std::size_t d = 0; d < dims; ++d)
        out.lengthscales[d] += w * hp.lengthscales[d];
      out.amplitude += w * hp.amplitude;
      out.noise_variance += w * hp.noise_variance;
    }
    for (std::size_t d = 0; d < dims; ++d) out.lengthscales[d] /= wsum;
    out.amplitude /= wsum;
    out.noise_variance /= wsum;
    return out;
  };

  EdgeBolConfig config = cfg_.cell;
  config.cost_hp = blend(&EdgeBolConfig::cost_hp);
  config.delay_hp = blend(&EdgeBolConfig::delay_hp);
  config.map_hp = blend(&EdgeBolConfig::map_hp);
  const std::size_t id = add_cell(std::move(config));

  // Import donor evidence farthest-first: rows append in order, so under a
  // full gp_budget (kOldest eviction) the NEAREST donor's rows survive
  // longest.
  for (std::size_t k = donors_.size(); k-- > 0;) {
    const auto rows =
        cells_[donors_[k]].agent.export_observations(kTransferMaxObs);
    cells_[id].agent.import_observations(rows);
  }
  return id;
}

std::size_t FleetEngine::plan_parts(std::span<const std::size_t> due) {
  const std::size_t n = due.size();
  const std::size_t parts = std::min(shards_, std::max<std::size_t>(1, n));
  if (part_begin_.size() < parts + 1) part_begin_.resize(parts + 1);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    total += std::max(cells_[due[i]].ema_ms, kMinWeightMs);
  part_begin_[0] = 0;
  std::size_t j = 1;
  double cum = 0.0;
  for (std::size_t i = 0; i < n && j < parts; ++i) {
    cum += std::max(cells_[due[i]].ema_ms, kMinWeightMs);
    // Place boundary j once the prefix crosses its share of the total load,
    // unless that would starve the remaining parts of items.
    while (j < parts &&
           cum >= total * static_cast<double>(j) / static_cast<double>(parts) &&
           n - (i + 1) >= parts - j) {
      part_begin_[j++] = i + 1;
    }
  }
  while (j < parts) {
    part_begin_[j] = n - (parts - j);
    ++j;
  }
  part_begin_[parts] = n;
  return parts;
}

template <class Work, class After>
void FleetEngine::dispatch(std::span<const std::size_t> due, bool timed,
                           const Work& work, const After& after) {
  const std::size_t n = due.size();
  if (timed) {
    last_batch_size_ = n;
    last_decide_wall_ms_ = 0.0;
    if (decide_ms_.size() < n) decide_ms_.resize(n);
  }
  if (n == 0) return;
  const auto batch_t0 = Clock::now();

  const bool batched = pool_ != nullptr && n > 1;
  std::size_t parts = 1;
  if (batched) {
    parts = plan_parts(due);
  } else {
    if (part_begin_.size() < 2) part_begin_.resize(2);
    part_begin_[0] = 0;
    part_begin_[1] = n;
  }

  // hot: dispatch
  const auto run = [&](std::size_t p0, std::size_t p1) {
    for (std::size_t p = p0; p < p1; ++p) {
      for (std::size_t i = part_begin_[p]; i < part_begin_[p + 1]; ++i) {
        const auto t0 = Clock::now();
        work(i);
        if (timed) decide_ms_[i] = ms_since(t0);
        after(i);
      }
    }
  };
  if (batched) {
    // sync: parts index disjoint contiguous ranges of `due` (ids unique per
    // batch), so each block touches only its own cells' agents and writes
    // only its own per-index slots (out[i], decide_ms_[i], whatever after(i)
    // owns); parallel_for joins before the serial EMA fold below reads
    // decide_ms_.
    pool_->parallel_for(parts, /*grain=*/1, run);
  } else {
    run(0, parts);
  }
  // hot: end

  if (!timed) return;
  for (std::size_t i = 0; i < n; ++i) {
    CellState& cs = cells_[due[i]];
    cs.ema_ms = cs.ema_ms == 0.0
                    ? decide_ms_[i]
                    : (1.0 - kLoadEma) * cs.ema_ms + kLoadEma * decide_ms_[i];
  }
  last_decide_wall_ms_ = ms_since(batch_t0);
}

void FleetEngine::fold_signature(std::size_t id, const env::Context& ctx) {
  // Running mean of observed context features, the transfer neighbourhood
  // metric. to_features() allocates, so callers fold after the dispatch.
  CellState& cs = cells_[id];
  const linalg::Vector f = ctx.to_features();
  for (std::size_t k = 0; k < env::Context::kFeatureDims; ++k)
    cs.ctx_sum[k] += f[k];
  ++cs.ctx_count;
}

void FleetEngine::decide_batch(std::span<const std::size_t> due,
                               std::span<const env::Context> contexts,
                               std::span<Decision> out) {
  const std::size_t n = due.size();
  if (contexts.size() != n || out.size() != n)
    throw std::invalid_argument("FleetEngine::decide_batch: size mismatch");
  dispatch(
      due, /*timed=*/true,
      [&](std::size_t i) { out[i] = cells_[due[i]].agent.select(contexts[i]); },
      [](std::size_t) {});
}

void FleetEngine::update_batch(std::span<const std::size_t> due,
                               std::span<const env::Context> contexts,
                               std::span<const Decision> decisions,
                               std::span<const env::Measurement> measurements) {
  const std::size_t n = due.size();
  if (contexts.size() != n || decisions.size() != n ||
      measurements.size() != n)
    throw std::invalid_argument("FleetEngine::update_batch: size mismatch");
  dispatch(
      due, /*timed=*/false,
      [&](std::size_t i) {
        cells_[due[i]].agent.update(contexts[i], decisions[i].policy_index,
                                    measurements[i]);
      },
      [](std::size_t) {});
  for (std::size_t i = 0; i < n; ++i) fold_signature(due[i], contexts[i]);
}

void FleetEngine::serve_batch(
    std::span<const std::size_t> due, std::span<const env::Context> contexts,
    std::span<const CellFeedback> feedback, std::span<Decision> out,
    const std::function<void(std::size_t)>& on_decided) {
  const std::size_t n = due.size();
  if (contexts.size() != n || feedback.size() != n || out.size() != n)
    throw std::invalid_argument("FleetEngine::serve_batch: size mismatch");
  dispatch(
      due, /*timed=*/true,
      [&](std::size_t i) {
        EdgeBol& agent = cells_[due[i]].agent;
        const CellFeedback& fb = feedback[i];
        if (fb.present) agent.update(fb.ctx, fb.policy_index, fb.meas);
        out[i] = agent.select(contexts[i]);
      },
      on_decided);
  for (std::size_t i = 0; i < n; ++i) {
    if (feedback[i].present) fold_signature(due[i], feedback[i].ctx);
  }
}

}  // namespace edgebol::core
