// Gaussian-process regression with exact online updates.
//
// Implements the posterior of paper eqs. (3)-(4):
//   mu_T(z)  = k_T(z)^T (K_T + zeta^2 I)^{-1} y_T
//   k_T(z,z') = k(z,z') - k_T(z)^T (K_T + zeta^2 I)^{-1} k_T(z')
//
// maintained through an incrementally extended Cholesky factor, so that
// adding the T-th observation costs O(T^2) and a single prediction costs
// O(T^2). Because EdgeBOL must score the *entire* control grid (|X| = 11^4)
// at every time period, the regressor can additionally "track" a fixed
// candidate matrix: their posterior means/variances are cached and updated
// in O(T |X|) per new observation instead of O(T^2 |X|) from scratch.
//
// The tracked cache is the decision loop's hot path. It is kept packed —
// candidates as one row-major matrix, the substitution state A = L^{-1}
// K(train, cands) as one contiguous row-major (T x |X|) buffer — so its
// O(T |X|) updates run as blocked, vectorizable row operations, and the
// O(T^2 |X|) rebuild on context switch evaluates the kernel rows straight
// into the buffer and forward-substitutes them in place, a register tile of
// rows at a time. Both are optionally parallelized over candidate-column
// blocks on a common::ThreadPool. Parallel partitioning is a function of |X|
// only (never the thread count) and each column's floating-point operation
// sequence is independent of the blocking and the tiling — and the same
// whether the cache was built by folds or by a rebuild — so results are
// bit-identical for any thread count, including the serial path.
//
// add() defers its O(T |X|) cache fold by one step: the factor, w and the
// stored data update at once, and the fold stays pending until something
// needs the cache. A remove_observation() right after the add — the steady
// state of a full observation budget — applies that fold, the eviction's
// Givens rotations and the fold-out of the dropped row in ONE row-streamed
// pass, so each cache row is loaded and stored once per period and the cache
// never grows past the budget; every other reader applies the fold alone
// first. Either way each element gets the operations of an eager fold
// followed by a separate downdate, in the same order, so the tracked
// posterior is bitwise the same. With per-period add + evict, cost and
// memory stay flat at O(B^2 + B |X|) forever while the posterior remains
// exact for the retained set.
//
// Instances are not safe for concurrent use: predict() reuses internal
// scratch buffers and the tracked readers apply a pending fold, although
// both are const. Distinct instances may be used from different threads
// freely, which is how the three EdgeBOL surrogates update concurrently.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_pool.hpp"
#include "gp/kernel.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"

namespace edgebol::gp {

using linalg::Matrix;
using linalg::Vector;

/// Posterior marginal at a single point.
struct Prediction {
  double mean = 0.0;
  double variance = 0.0;
  double stddev() const;
};

/// Which observation a budgeted learner evicts once it holds more than its
/// budget (see GpRegressor::eviction_candidate).
enum class EvictionPolicy {
  /// Sliding window: always drop the oldest observation (index 0). O(1)
  /// selection; the right default for drifting environments.
  kOldest,
  /// Drop the observation whose removal least perturbs the posterior mean:
  /// argmin_i alpha_i^2 / P_ii with alpha = (K + zeta^2 I)^{-1} y and
  /// P = (K + zeta^2 I)^{-1} (the deletion score of sparse-GP pruning,
  /// computable from the existing factor in O(T^3) — flat in the horizon
  /// since T <= B). Keeps the informative support points; ties break toward
  /// the oldest for determinism.
  kMinLeverage,
};

class GpRegressor {
 public:
  /// `noise_variance` is the observation noise zeta^2 (must be > 0: it also
  /// regularizes the kernel matrix).
  GpRegressor(std::unique_ptr<Kernel> kernel, double noise_variance);

  GpRegressor(const GpRegressor& other);
  GpRegressor& operator=(const GpRegressor& other);
  GpRegressor(GpRegressor&&) noexcept = default;
  GpRegressor& operator=(GpRegressor&&) noexcept = default;

  /// Parallelize tracked-cache maintenance on `pool` (nullptr restores the
  /// serial path). Results are bit-identical either way.
  void set_thread_pool(std::shared_ptr<common::ThreadPool> pool);

  /// Condition on one observation y at input z. O(T^2): the factor, w and
  /// the stored data update at once, while the O(T m) fold of the new row
  /// into m tracked candidates is left pending. The next
  /// remove_observation() fuses it into its own cache pass; any tracked
  /// reader, reset_tracked_deltas() or another add() applies it alone first.
  void add(const Vector& z, double y);

  /// The index `policy` would evict right now. Requires at least one
  /// observation. Deterministic (serial) regardless of the thread pool.
  std::size_t eviction_candidate(EvictionPolicy policy) const;

  /// Remove observation i exactly: the Cholesky factor is downdated with
  /// Givens rotations in O(T^2) (no refactorization) and the same rotations
  /// mix w and the tracked-candidate cache. The cache side is one O(T m)
  /// pass that streams each row once: it applies add()'s pending fold (if
  /// any), rotates, and folds the rotated-out last row out of the moments —
  /// per element the operations, in order, of a fold followed by a separate
  /// downdate. The posterior afterwards equals (to rounding) a fresh
  /// regressor built from the retained observations; the pass is
  /// block-parallel on the pool and bit-identical for any thread count.
  void remove_observation(std::size_t i);

  /// Posterior mean/variance at z. O(T^2). With no data this returns the
  /// prior (mean 0, variance k(z,z)).
  Prediction predict(const Vector& z) const;

  /// Log marginal likelihood of the observed data under the current kernel
  /// and noise level. Used for hyperparameter fitting.
  double log_marginal_likelihood() const;

  std::size_t num_observations() const { return y_.size(); }
  const std::vector<Vector>& inputs() const { return z_; }
  const Vector& targets() const { return y_; }
  const Kernel& kernel() const { return *kernel_; }
  double noise_variance() const { return noise_var_; }

  /// Register candidate points whose posterior is kept up to date across
  /// add() / remove_observation() calls. Replaces any previous tracking and
  /// drops a pending fold: the rebuild computes the cache from the factor.
  /// Cost: O(T^2 m) once, then O(T m) per add().
  void track_candidates(std::vector<Vector> candidates);

  /// Packed variant: one row-major (m x dims) matrix, shared so several
  /// regressors tracking the same grid (EdgeBOL's three surrogates) hold a
  /// single copy of the candidate features.
  void track_candidates(std::shared_ptr<const Matrix> candidates);

  void clear_tracked_candidates();
  bool has_tracked_candidates() const { return num_tracked() > 0; }
  std::size_t num_tracked() const { return cands_ ? cands_->rows() : 0; }
  double tracked_mean(std::size_t j) const {
    flush_fold();
    return tracked_mean_[j];
  }
  double tracked_variance(std::size_t j) const;
  Prediction tracked_prediction(std::size_t j) const;

  /// Raw tracked-posterior arrays for the allocation-free decision path.
  /// tracked_var_data() is UNCLAMPED (may go epsilon-negative from rounding);
  /// consumers must clamp with max(0.0, v) before sqrt, exactly as
  /// tracked_variance() does.
  /// Like every tracked reader they apply a pending fold first, so take the
  /// pointers on one thread before handing them to concurrent readers.
  const double* tracked_mean_data() const {
    flush_fold();
    return tracked_mean_.data();
  }
  const double* tracked_var_data() const {
    flush_fold();
    return tracked_var_.data();
  }

  /// Per-candidate accumulated delta magnitudes since the last
  /// reset_tracked_deltas(): tracked_delta_mean_data()[j] bounds
  /// |tracked_mean_[j] - mean at reset|, and tracked_delta_sigma_data()[j]
  /// bounds the amount the tracked stddev can have moved (|delta sigma| <=
  /// sqrt(sum a^2) <= sum |a| per rank-1 event). They grow inside the
  /// cache passes with the exact same products that feed the moments, so a
  /// zero entry means that candidate's cached posterior is bitwise
  /// unchanged. The incremental safe-set maintenance in core/safe_set.cpp is
  /// the consumer.
  const double* tracked_delta_mean_data() const {
    flush_fold();
    return delta_mean_.data();
  }
  const double* tracked_delta_sigma_data() const {
    flush_fold();
    return delta_sigma_.data();
  }
  /// Rank-1 events (adds/evictions folded into the tracked cache) since the
  /// last reset. 0 means the tracked posterior is bitwise unchanged and a
  /// consumer sweep may no-op.
  std::size_t tracked_delta_events() const {
    flush_fold();
    return delta_events_;
  }
  /// Zero the delta accumulators (consumer has absorbed them). O(m), skipped
  /// entirely when no events are pending.
  void reset_tracked_deltas();
  /// Monotone counter bumped whenever the tracked cache is rebuilt or
  /// cleared (track_candidates, context switch, load). Consumers holding
  /// per-candidate state keyed on the tracked arrays must full-rescan when
  /// it changes: pending deltas are zeroed by a rebuild, so the delta
  /// arrays alone cannot signal it.
  std::uint64_t tracked_rebuild_epoch() const { return tracked_epoch_; }

 private:
  struct CachePass;

  void rebuild_tracked_cache();
  // Rebuild the tracked cache for candidate columns [j0, j1).
  void rebuild_columns(std::size_t j0, std::size_t j1);
  // Applies a fold that add() left pending, on its own.
  void flush_fold() const {
    if (fold_pending_) apply_fold();
  }
  void apply_fold() const;
  // One streamed pass of `pass` over cache columns [j0, j1).
  void stream_columns(const CachePass& pass, std::size_t j0,
                      std::size_t j1) const;
  // Runs fn over candidate-column blocks (fixed width, thread pool if set).
  void over_columns(
      const std::function<void(std::size_t, std::size_t)>& fn) const;
  void reserve_cache_rows(std::size_t rows) const;

  std::unique_ptr<Kernel> kernel_;
  double noise_var_;

  std::vector<Vector> z_;        // T training inputs
  std::vector<double> zdata_;    // the same inputs packed row-major (T x d)
  Vector y_;                     // T training targets
  linalg::CholeskyFactor chol_;  // factor of K + zeta^2 I
  Vector w_;                     // L^{-1} y, extended per observation

  std::shared_ptr<const Matrix> cands_;  // m tracked candidates, packed
  // The tracked state below is mutable because the const readers apply a
  // pending fold before they hand it out.
  mutable std::vector<double> amat_;  // A = L^{-1} K(train, cands), T x m
  mutable Vector tracked_mean_;       // m
  mutable Vector tracked_var_;        // m (clamped at >= 0 on read)
  mutable Vector delta_mean_;         // m, accumulated |mean delta| since reset
  mutable Vector delta_sigma_;        // m, accumulated |a_j| (bounds sigma)
  mutable std::size_t delta_events_ = 0;  // rank-1 events since reset
  // The newest observation's fold is not in the cache yet: A has one row
  // fewer than the factor (see add()).
  mutable bool fold_pending_ = false;
  std::uint64_t tracked_epoch_ = 0;  // bumped on rebuild/clear

  std::shared_ptr<common::ThreadPool> pool_;
  mutable Vector scratch_k_;     // kernel row, reused across predict()/add()
  mutable Vector scratch_v_;     // triangular-solve output for predict()
  std::vector<linalg::GivensRotation> rot_scratch_;  // eviction rotations
  std::vector<double> fold_row_;  // pending fold's factor row, pre-eviction
};

}  // namespace edgebol::gp
