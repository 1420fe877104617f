// Fleet-scale learner engine: thousands of per-cell EdgeBol agents in one
// process, decided and updated through BATCHED dispatch on one shared
// ThreadPool instead of N independent serial loops.
//
// Sharding. Each cell owns a budgeted serial EdgeBol (num_threads forced to
// 1 — fleet parallelism is ACROSS cells, not inside one). Cells are stored
// contiguously in creation order; a batch of due cells is partitioned into
// up to 4 x num_threads contiguous id ranges, so one dispatch block touches
// neighbouring cells' working sets (cache locality) and, because boundaries
// are placed by a greedy prefix walk over each cell's EMA-smoothed measured
// decision cost, the ranges carry near-equal expected load (load balance).
// Each block runs its cells' FusedAcquisition decision paths serially.
//
// Determinism. Cells share no mutable state, so each cell's decision and
// update sequence is bit-identical to looping the cells serially — for any
// thread count, any shard count, and any (timing-dependent) partition. An
// engine with num_threads = 1 has no pool and runs the plain serial loop.
//
// Transfer. A cell joining mid-run (add_cell_warm) warm-starts from the K
// nearest established cells by context signature (mean observed context
// features): its kernel hyperparameters are the inverse-distance-weighted
// blend of the donors', and its surrogates are conditioned on
// update()-style pseudo-observations exported from the donors — so the GP
// evidence, and with it the safe set, carries over and the joiner converges
// measurably faster than a cold start (bench_fleet gates the ratio).

#pragma once

#include <cstddef>
#include <deque>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/edgebol.hpp"
#include "env/control_grid.hpp"

namespace edgebol::core {

struct FleetEngineConfig {
  /// Threads of the shared dispatch pool (counts the caller; 1 = serial).
  /// A batch splits into up to 4 contiguous cell ranges per thread.
  std::size_t num_threads = 1;
  /// Donors consulted by add_cell_warm (K nearest by context signature).
  std::size_t transfer_k = 3;
  /// Donor eligibility floor: cells with fewer stored observations are
  /// still filling their safe seed and make poor teachers.
  std::size_t transfer_min_obs = 8;
  /// Per-cell learner template. num_threads inside is forced to 1.
  EdgeBolConfig cell{};
};

class FleetEngine {
 public:
  /// All cells share this control grid (each agent keeps its own copy — the
  /// learners stay fully independent).
  FleetEngine(env::ControlGrid grid, FleetEngineConfig config);

  /// Cold-start a cell with the template config. Returns its id
  /// (== creation order, matching env::FleetSim ids when added in lockstep).
  std::size_t add_cell();
  /// Cold-start with a per-cell config (heterogeneous hyperparameters,
  /// budgets, constraints; num_threads still forced to 1).
  std::size_t add_cell(EdgeBolConfig config);
  /// Warm-start a cell joining mid-run: hyperparameters blended from, and
  /// pseudo-observations imported from, the K nearest established cells to
  /// `expected` (falls back to a cold start when no cell qualifies).
  std::size_t add_cell_warm(const env::Context& expected);

  std::size_t num_cells() const { return cells_.size(); }
  EdgeBol& cell(std::size_t id) { return cells_.at(id).agent; }
  const EdgeBol& cell(std::size_t id) const { return cells_.at(id).agent; }

  /// Batched decision dispatch: out[i] = cell(due[i]).select(contexts[i]),
  /// bit-identical to the serial loop. Spans must be equal length; due ids
  /// must be unique (one decision per cell per batch).
  void decide_batch(std::span<const std::size_t> due,
                    std::span<const env::Context> contexts,
                    std::span<Decision> out);

  /// Batched conditioning: cell(due[i]).update(contexts[i],
  /// decisions[i].policy_index, measurements[i]), same contract as
  /// decide_batch. Also folds the observed contexts into each cell's
  /// context signature (the transfer neighbourhood metric).
  void update_batch(std::span<const std::size_t> due,
                    std::span<const env::Context> contexts,
                    std::span<const Decision> decisions,
                    std::span<const env::Measurement> measurements);

  /// Per-cell select() wall time of the LAST decide_batch, in ms, aligned
  /// with that batch's `due` span. Valid until the next decide_batch.
  std::span<const double> last_decide_ms() const {
    return {decide_ms_.data(), last_batch_size_};
  }

  /// Whole-batch wall time of the last decide_batch / update_batch (ms),
  /// dispatch included — the engine-side term of the fleet plane's
  /// transport-vs-decide split (tools/bench_transport, tools/load_ric).
  double last_decide_wall_ms() const { return last_decide_wall_ms_; }
  double last_update_wall_ms() const { return last_update_wall_ms_; }

  /// EMA-smoothed decision cost of one cell (ms) — the shard-balance weight.
  double load_estimate_ms(std::size_t id) const {
    return cells_.at(id).ema_ms;
  }

  /// Donor ids used by the most recent add_cell_warm (empty = cold
  /// fallback), nearest first.
  std::span<const std::size_t> last_transfer_donors() const {
    return donors_;
  }

  /// The shared dispatch pool (nullptr when num_threads == 1) — reusable for
  /// per-cell environment stepping between decide and update.
  common::ThreadPool* pool() { return pool_.get(); }

  const env::ControlGrid& grid() const { return grid_; }
  const FleetEngineConfig& config() const { return cfg_; }

 private:
  struct CellState {
    EdgeBol agent;  // its config() holds the hyperparameters transfer blends
    // Context signature: running mean of observed context features.
    double ctx_sum[env::Context::kFeatureDims] = {0.0, 0.0, 0.0};
    std::size_t ctx_count = 0;
    // EMA of measured select() wall time (ms); shard-balance weight.
    double ema_ms = 0.0;
    explicit CellState(EdgeBol a) : agent(std::move(a)) {}
  };

  // Greedy EMA-weighted prefix partition of [0, n) into contiguous parts;
  // fills part_begin_[0..parts] and returns the part count.
  std::size_t plan_parts(std::span<const std::size_t> due);

  env::ControlGrid grid_;
  FleetEngineConfig cfg_;
  std::size_t shards_ = 1;
  std::shared_ptr<common::ThreadPool> pool_;  // null when num_threads == 1
  std::deque<CellState> cells_;               // stable addresses

  // Batch scratch (prologue-resized; the dispatch loop itself is
  // allocation-free).
  std::vector<std::size_t> part_begin_;
  std::vector<double> decide_ms_;
  std::size_t last_batch_size_ = 0;
  double last_decide_wall_ms_ = 0.0;
  double last_update_wall_ms_ = 0.0;
  std::vector<std::size_t> donors_;
  std::vector<double> donor_dist_;
};

}  // namespace edgebol::core
