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
// candidate set: their posterior means/variances are cached and updated
// in O(T |X|) per new observation instead of O(T^2 |X|) from scratch.
//
// The tracked cache is the decision loop's hot path. It is kept packed —
// the candidates feature-major (linalg::FeatureMajorPoints, so a block of
// candidates is contiguous in every feature row for the kernel's distance
// loop), the substitution state A = L^{-1} K(train, cands) as one
// contiguous row-major (T x |X|) buffer — so its O(T |X|) updates run as
// blocked, vectorizable row operations, and the O(T^2 |X|) rebuild on
// context switch evaluates the kernel rows straight into the buffer and
// forward-substitutes them in place, a register tile of rows at a time.
// Both run at the host's vector width (gp/lanes.hpp) and are optionally
// parallelized over candidate-column blocks on a common::ThreadPool.
// Parallel partitioning is a function of |X| only (never the thread count)
// and each column's floating-point operation sequence is independent of
// the blocking, the tiling and the width — and the same whether the cache
// was built by folds or by a rebuild — so results are bit-identical for any
// thread count, including the serial path, and for any of the widths.
//
// add() and remove_observation() update the factor, w and the stored data
// at once and leave their O(T |X|) cache work pending: one pass that folds
// the added row in, applies the eviction's Givens rotations and folds the
// dropped row out, streaming each cache row once, so the cache never grows
// past the budget. The pass runs when something needs the cache: a tracked
// reader, the next add() or eviction, or a caller's apply_pending_pass()
// (GenericSafeBol::select runs its surrogates' passes concurrently). A rebuild (track_candidates, a context move) drops it
// unrun: it recomputes the cache from the factor. Either way each element
// gets the operations of an eager fold followed by a separate downdate, in
// the same order, so the tracked posterior is bitwise the same. With
// per-period add + evict, cost and memory stay flat at O(B^2 + B |X|)
// forever while the posterior remains exact for the retained set.
//
// Instances are not safe for concurrent use: predict() reuses internal
// scratch buffers and the tracked readers apply a pending pass, although
// both are const. Distinct instances may be used from different threads
// freely, which is how the three EdgeBOL surrogates update concurrently.

#pragma once

#include <memory>
#include <vector>

#include "common/thread_pool.hpp"
#include "gp/kernel.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"

namespace edgebol::gp {

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
  /// into m tracked candidates is left pending (a pass already pending runs
  /// first). A remove_observation() right after joins it.
  void add(const Vector& z, double y);

  /// The index `policy` would evict right now. Requires at least one
  /// observation. Deterministic (serial) regardless of the thread pool.
  std::size_t eviction_candidate(EvictionPolicy policy) const;

  /// Remove observation i exactly: the Cholesky factor is downdated with
  /// Givens rotations in O(T^2) (no refactorization) and the same rotations
  /// mix w and, later, the tracked-candidate cache. The cache side is one
  /// O(T m) pass, left pending, that streams each row once: it applies
  /// add()'s pending fold (if any), rotates, and folds the rotated-out last
  /// row out of the moments — per element the operations, in order, of a
  /// fold followed by a separate downdate. An eviction already pending runs
  /// first. The posterior afterwards equals (to rounding) a fresh regressor
  /// built from the retained observations; the pass is block-parallel on
  /// the pool and bit-identical for any thread count.
  void remove_observation(std::size_t i);

  /// Runs the cache pass that add() / remove_observation() left pending,
  /// if any; every tracked reader does so first. A caller holding several
  /// regressors can run their passes concurrently with this before reading.
  void apply_pending_pass() const {
    if (pending_.fold || pending_.evict) run_pending_pass();
  }

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
  /// drops a pending pass unrun: the rebuild computes the cache from the
  /// factor. Cost: O(T^2 m) once, then O(T m) per add().
  void track_candidates(const std::vector<Vector>& candidates);

  /// Packed variant, feature-major, shared so several regressors tracking
  /// the same grid (EdgeBOL's three surrogates) hold a single copy of the
  /// candidate features.
  void track_candidates(
      std::shared_ptr<const linalg::FeatureMajorPoints> candidates);

  void clear_tracked_candidates();
  bool has_tracked_candidates() const { return num_tracked() > 0; }
  std::size_t num_tracked() const { return cands_ ? cands_->size() : 0; }
  double tracked_mean(std::size_t j) const {
    apply_pending_pass();
    return tracked_mean_[j];
  }
  double tracked_variance(std::size_t j) const;
  Prediction tracked_prediction(std::size_t j) const;

  /// Raw tracked-posterior arrays for the allocation-free decision path.
  /// tracked_var_data() is UNCLAMPED (may go epsilon-negative from rounding);
  /// consumers must clamp with max(0.0, v) before sqrt, exactly as
  /// tracked_variance() does.
  /// Like every tracked reader they apply a pending pass first, so take the
  /// pointers on one thread before handing them to concurrent readers.
  const double* tracked_mean_data() const {
    apply_pending_pass();
    return tracked_mean_.data();
  }
  const double* tracked_var_data() const {
    apply_pending_pass();
    return tracked_var_.data();
  }

 private:
  // The cache pass add() and remove_observation() leave pending. With
  // `fold`, the added observation's row a = (k(z, c) - sum_i lrow[i] a_i) /
  // pivot joins the cache and folds into the moments with w entry w_new.
  // With `evict`, rotations[r] then mixes rows (victim + r, victim + r + 1)
  // of the cache, the new row included, and the rotated-out last row folds
  // out of the moments with w entry w_last. It holds copies of everything
  // it reads: the factor, w, z_ and the rotations all move on before it
  // runs.
  struct CachePass {
    std::size_t rows = 0;  // cache rows on entry
    bool fold = false;
    std::vector<double> lrow;  // the added row of the factor, pre-eviction
    Vector z;
    double pivot = 1.0;
    double w_new = 0.0;
    bool evict = false;
    std::size_t victim = 0;
    // Also remove_observation()'s rotation scratch when nothing is tracked.
    std::vector<linalg::GivensRotation> rotations;
    double w_last = 0.0;
  };

  void rebuild_tracked_cache();
  // Rebuild the tracked cache for candidate columns [j0, j1).
  void rebuild_columns(std::size_t j0, std::size_t j1);
  // Streams pending_ over the cache at the host's lane width
  // (lanes::stream_columns), block by block.
  void run_pending_pass() const;
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

  // m tracked candidates, shared
  std::shared_ptr<const linalg::FeatureMajorPoints> cands_;
  // The tracked state below is mutable because the const readers apply a
  // pending pass before they hand it out.
  mutable std::vector<double> amat_;  // A = L^{-1} K(train, cands), rows x m
  mutable Vector tracked_mean_;       // m
  mutable Vector tracked_var_;        // m (clamped at >= 0 on read)
  mutable CachePass pending_;  // not run yet: A lags the factor

  std::shared_ptr<common::ThreadPool> pool_;
  mutable Vector scratch_k_;     // kernel row, reused across predict()/add()
  mutable Vector scratch_v_;     // triangular-solve output for predict()
};

}  // namespace edgebol::gp
