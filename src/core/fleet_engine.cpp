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

void FleetEngine::decide_batch(std::span<const std::size_t> due,
                               std::span<const env::Context> contexts,
                               std::span<Decision> out) {
  const std::size_t n = due.size();
  if (contexts.size() != n || out.size() != n)
    throw std::invalid_argument("FleetEngine::decide_batch: size mismatch");
  last_batch_size_ = n;
  last_decide_wall_ms_ = 0.0;
  if (n == 0) return;
  if (decide_ms_.size() < n) decide_ms_.resize(n);
  const auto batch_t0 = std::chrono::steady_clock::now();

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
        const auto t0 = std::chrono::steady_clock::now();
        out[i] = cells_[due[i]].agent.select(contexts[i]);
        decide_ms_[i] = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
      }
    }
  };
  if (batched) {
    // sync: parts index disjoint contiguous ranges of `due` (ids unique per
    // batch), so each block touches only its own cells' agents and writes
    // only its own out[i]/decide_ms_[i] slots; parallel_for joins before the
    // serial EMA fold below reads decide_ms_.
    pool_->parallel_for(parts, /*grain=*/1, run);
  } else {
    run(0, parts);
  }
  // hot: end

  for (std::size_t i = 0; i < n; ++i) {
    CellState& cs = cells_[due[i]];
    cs.ema_ms = cs.ema_ms == 0.0
                    ? decide_ms_[i]
                    : (1.0 - kLoadEma) * cs.ema_ms + kLoadEma * decide_ms_[i];
  }
  last_decide_wall_ms_ = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - batch_t0)
                             .count();
}

void FleetEngine::update_batch(std::span<const std::size_t> due,
                               std::span<const env::Context> contexts,
                               std::span<const Decision> decisions,
                               std::span<const env::Measurement> measurements) {
  const std::size_t n = due.size();
  if (contexts.size() != n || decisions.size() != n ||
      measurements.size() != n)
    throw std::invalid_argument("FleetEngine::update_batch: size mismatch");
  last_update_wall_ms_ = 0.0;
  if (n == 0) return;
  const auto batch_t0 = std::chrono::steady_clock::now();

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
        cells_[due[i]].agent.update(contexts[i], decisions[i].policy_index,
                                    measurements[i]);
      }
    }
  };
  if (batched) {
    // sync: parts index disjoint contiguous ranges of `due` (ids unique per
    // batch), so each block conditions only its own cells' surrogates;
    // parallel_for joins before the serial signature fold below.
    pool_->parallel_for(parts, /*grain=*/1, run);
  } else {
    run(0, parts);
  }
  // hot: end

  // Context signature: running mean of observed context features, the
  // transfer neighbourhood metric. to_features() allocates, so this stays
  // out of the dispatch loop.
  for (std::size_t i = 0; i < n; ++i) {
    CellState& cs = cells_[due[i]];
    const linalg::Vector f = contexts[i].to_features();
    for (std::size_t k = 0; k < env::Context::kFeatureDims; ++k)
      cs.ctx_sum[k] += f[k];
    ++cs.ctx_count;
  }
  last_update_wall_ms_ = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - batch_t0)
                             .count();
}

}  // namespace edgebol::core
