// Safe-set estimation (paper eq. 8).
//
// A control x is deemed safe for context c_t when the GP confidence bounds
// of both constraint functions stay on the right side of the thresholds:
//   mu_d(c_t, x) + beta * sigma_d(c_t, x) <= d_max        (delay UCB)
//   mu_rho(c_t, x) - beta * sigma_rho(c_t, x) >= rho_min   (mAP LCB)
// The initial safe set S0 (maximum-performance policies) is always included,
// which is also the fallback when the constraints are infeasible (§5,
// Practical Issues).

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "gp/gp_regressor.hpp"

namespace edgebol::core {

/// The service-level constraints of problem (2).
struct ConstraintSpec {
  double d_max_s = 0.4;   // maximum service delay
  double map_min = 0.5;   // minimum mAP (rho_min)
};

/// Compute the safe set over a candidate list given per-candidate posterior
/// marginals of the delay and mAP surrogates (same index order), the
/// thresholds (already in the same scale as the predictions), and S0.
///
/// Returns sorted, de-duplicated candidate indices.
std::vector<std::size_t> compute_safe_set(
    const std::vector<gp::Prediction>& delay_posterior,
    const std::vector<gp::Prediction>& map_posterior, double d_max,
    double map_min, double beta, const std::vector<std::size_t>& s0);

/// Candidate-block width of the incremental decision path. Fixed (never a
/// function of the thread count) so the parallel partition — and every
/// per-candidate decision — is identical for any pool size; 2048 splits the
/// 11^4 grid into 8 blocks. SafeSetTracker::maintain_block must be called on
/// blocks aligned to this grain.
inline constexpr std::size_t kDecideBlock = 2048;

/// One confidence-bound constraint over a GP's tracked candidates:
///   upper:  (tracked_mean + offset) + beta * tracked_stddev <= threshold
///   lower:  (tracked_mean + offset) - beta * tracked_stddev >= threshold
/// `offset` is the constant prior mean the engine adds back to the zero-mean
/// GP (MetricSpec::prior_mean); `threshold` is already in transformed
/// (GP-target) units.
struct BoundSpec {
  gp::GpRegressor* gp = nullptr;
  bool upper = true;
  double threshold = 0.0;
  double offset = 0.0;
};

/// Incremental maintenance of per-candidate constraint confidence bounds.
///
/// The full rescan recomputes every candidate's bound (a sqrt each) every
/// period. This tracker instead stores the bound from the last exact rescore
/// plus an accumulated slack budget: the GP-side delta-magnitude accumulators
/// (GpRegressor::tracked_delta_*) bound how far a candidate's cached
/// mean/stddev can have moved since then, padded for the floating-point
/// accumulation error of the moment folds (kMeanPad/kSigmaPad below). A
/// candidate is rescored only when that budget could flip its safe/unsafe
/// classification against the current threshold — so after a rank-1 update
/// only the frontier near the constraint boundary is touched, and the
/// classification every round is PROVABLY identical to a full rescan:
/// skipping requires either a bitwise-unchanged posterior or a slack
/// strictly smaller than the bound-to-threshold distance. Rescoring more
/// than necessary is always safe (it recomputes the exact bound with the
/// same expression as the full path).
///
/// Usage per decision round (see FusedAcquisition, which drives this from a
/// single pool dispatch): begin_round(specs, beta) -> maintain_block(j0, j1)
/// over all aligned blocks (any thread/order) -> finish_round(). Threshold
/// changes are free (bounds don't depend on the threshold); beta changes or
/// a GP cache rebuild trigger an automatic full rescore.
class SafeSetTracker {
 public:
  /// Size (or re-size) for `num_candidates` candidates and
  /// `num_constraints` bound slots. Resets all state; the first round after
  /// configure() is a full rescore.
  void configure(std::size_t num_candidates, std::size_t num_constraints);

  /// Force a full rescore on the next round (escape hatch; rebuilds and
  /// beta changes are detected automatically).
  void invalidate() { force_full_ = true; }

  /// Snapshot the round: validates the specs (slot count must match
  /// configure(), every GP must track exactly num_candidates() candidates,
  /// beta must be >= 0 and finite) and decides per slot between the
  /// incremental sweep and a full rescore. The spec GPs must stay untouched
  /// until finish_round().
  void begin_round(std::span<const BoundSpec> bounds, double beta);

  /// Maintain bounds for candidates [j0, j1) of every slot. j0 must be a
  /// multiple of kDecideBlock. Thread-safe across disjoint blocks; after the
  /// call, bound_data(c)[j] is classification-exact for j in [j0, j1).
  void maintain_block(std::size_t j0, std::size_t j1);

  /// Close the round: record per-slot epochs/beta, absorb the GP delta
  /// accumulators (reset once per DISTINCT GP, so two slots sharing a
  /// surrogate both see the same deltas during the round), and fold the
  /// per-block rescore counters into the telemetry.
  void finish_round();

  /// Close a round that failed mid-sweep: the stored bounds may be partially
  /// maintained, so nothing is recorded and the next round is forced full.
  void abort_round() {
    in_round_ = false;
    force_full_ = true;
  }

  /// Stored confidence bound of slot c (valid after the block sweeps).
  const double* bound_data(std::size_t c) const {
    return bounds_.data() + c * m_;
  }
  double slot_threshold(std::size_t c) const { return slots_[c].thr; }
  bool slot_upper(std::size_t c) const { return slots_[c].upper; }
  /// Unclamped tracked variances of slot c's GP (for SafeOpt widths).
  const double* slot_var_data(std::size_t c) const { return slots_[c].var; }

  std::size_t num_candidates() const { return m_; }
  std::size_t num_constraints() const { return c_; }

  /// Telemetry: rounds that did at least one full per-slot rescore, and the
  /// number of per-candidate rescores in the last round.
  std::uint64_t full_rounds() const { return full_rounds_; }
  std::size_t last_rescored() const { return last_rescored_; }

 private:
  struct Slot {
    const double* mean = nullptr;  // GP tracked means
    const double* var = nullptr;   // GP tracked variances (unclamped)
    const double* dmu = nullptr;   // GP per-candidate |mean delta| sums
    const double* dsg = nullptr;   // GP per-candidate |a_j| sums
    gp::GpRegressor* gp = nullptr;
    double off = 0.0;
    double thr = 0.0;
    double sgn = 1.0;  // +1 upper bound, -1 lower bound
    bool upper = true;
    bool full = false;  // this round rescored every candidate
  };

  std::size_t m_ = 0;
  std::size_t c_ = 0;
  double round_beta_ = 0.0;
  double last_beta_ = 0.0;
  bool have_beta_ = false;
  bool force_full_ = true;
  bool in_round_ = false;
  std::vector<Slot> slots_;                 // c_ entries during a round
  std::vector<double> bounds_;              // c_ x m_, stored bounds
  std::vector<double> stale_;               // c_ x m_, accumulated slack
  std::vector<std::uint64_t> epochs_;       // per slot: GP rebuild epoch
  std::vector<const gp::GpRegressor*> slot_gps_;  // per slot: GP identity
  std::vector<double> slot_offs_;           // per slot: last offset
  std::vector<std::uint8_t> slot_uppers_;   // per slot: last direction
  std::vector<std::size_t> rescored_;       // per block, last round
  std::uint64_t full_rounds_ = 0;
  std::size_t last_rescored_ = 0;
};

}  // namespace edgebol::core
