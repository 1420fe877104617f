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
// Each block runs its cells serially. decide_batch, update_batch and
// serve_batch all go through that one dispatch loop.
//
// Streaming. serve_batch fuses one period of a cell into one pass on the
// pool: update (the previous period's feedback), select, then the caller's
// on_decided(i), on the thread that decided the cell. The fleet plane
// (oran/fleet_plane.hpp) sends each cell's policy from that callback, so a
// policy leaves as soon as its own cell is decided, not after the batch's
// last cell.
//
// Determinism. Cells share no mutable state, so each cell's decision and
// update sequence is bit-identical to looping the cells serially — for any
// thread count, any shard count, and any (timing-dependent) partition, and
// whether a period runs as update_batch + decide_batch or as serve_batch.
// An engine with num_threads = 1 has no pool and runs the plain serial loop.
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
#include <functional>
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

/// One due cell's previous-period feedback for serve_batch: the context it
/// decided in, the arm it applied and what it measured. `present` is false
/// on a cell's first period, when there is nothing to condition on.
struct CellFeedback {
  bool present = false;
  env::Context ctx{};
  std::size_t policy_index = 0;
  env::Measurement meas{};
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

  /// Fused serving dispatch, one pass per cell: cell(due[i]) conditions on
  /// feedback[i] when present (as update_batch would, context signature
  /// included), then out[i] = select(contexts[i]), then on_decided(i) runs
  /// on the same thread before that thread takes its next cell.
  /// Bit-identical to update_batch followed by decide_batch; same span
  /// contract as decide_batch.
  ///
  /// Threading: on a pooled engine on_decided runs on pool workers and on
  /// the calling thread, concurrently for different i. It must touch only
  /// state owned by index i, and it runs with no engine or pool lock held.
  /// Errors: the first exception thrown by any cell's update, select or
  /// on_decided is rethrown after every dispatch block has finished. The
  /// cells served before it keep their effects (their on_decided calls
  /// stay made); the rest of the thrower's block is not run, and the batch
  /// folds no load estimate and no context signature.
  void serve_batch(std::span<const std::size_t> due,
                   std::span<const env::Context> contexts,
                   std::span<const CellFeedback> feedback,
                   std::span<Decision> out,
                   const std::function<void(std::size_t)>& on_decided);

  /// Per-cell wall time in ms of the LAST decide_batch (select()) or
  /// serve_batch (update() + select(), on_decided excluded), aligned with
  /// that batch's `due` span. update_batch leaves it alone. Valid until the
  /// next decide_batch or serve_batch.
  std::span<const double> last_decide_ms() const {
    return {decide_ms_.data(), last_batch_size_};
  }

  /// Whole-batch wall time in ms of the last decide_batch or serve_batch,
  /// dispatch (and serve_batch's on_decided calls) included: the engine-side
  /// term of the fleet plane's transport-vs-decide split.
  double last_decide_wall_ms() const { return last_decide_wall_ms_; }

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
    // EMA of the cell's measured dispatch time (ms: select(), or update() +
    // select() under serve_batch); shard-balance weight.
    double ema_ms = 0.0;
    explicit CellState(EdgeBol a) : agent(std::move(a)) {}
  };

  // Greedy EMA-weighted prefix partition of [0, n) into contiguous parts;
  // fills part_begin_[0..parts] and returns the part count.
  std::size_t plan_parts(std::span<const std::size_t> due);

  // The one dispatch loop behind decide_batch, update_batch and
  // serve_batch (defined in fleet_engine.cpp, its only user): partitions
  // `due`, runs work(i) then after(i) for every index i on the pool and,
  // when `timed`, records work(i)'s wall time in decide_ms_[i], folds it
  // into the cell's load estimate and sets the last_decide_* accessors.
  template <class Work, class After>
  void dispatch(std::span<const std::size_t> due, bool timed,
                const Work& work, const After& after);

  // Folds one observed context into a cell's context signature.
  void fold_signature(std::size_t id, const env::Context& ctx);

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
  std::vector<std::size_t> donors_;
  std::vector<double> donor_dist_;
};

}  // namespace edgebol::core
