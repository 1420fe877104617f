// Acquisition function (paper eq. 9): the contextual Lower Confidence Bound
// of Krause & Ong, restricted to the safe set:
//   x_t = argmin_{x in S_t}  mu_u(c_t, x) - sqrt(beta) * sigma_u(c_t, x).
//
// Minimizing the optimistic cost bound both exploits (low posterior mean)
// and explores (high uncertainty); because cheap policies sit near the
// constraint boundary, this acquisition also expands the safe set without a
// dedicated expansion step (§5).
//
// FusedAcquisition is the decision path of the one safe-BO engine
// (core::GenericSafeBol): one sweep that tests every candidate's constraint
// bounds (the safe set of eq. 8, core/safe_set.hpp) and runs this
// acquisition over it. compute_safe_set, lcb_argmin and safeopt_select are
// the straight-line scans it reproduces, kept as the reference the tests
// and bench_micro_gp compare it against.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/safe_set.hpp"
#include "gp/gp_regressor.hpp"

namespace edgebol::core {

/// Index (into the candidate list) minimizing the LCB over `safe_set`.
/// Throws std::invalid_argument if the safe set is empty or references an
/// out-of-range candidate.
std::size_t lcb_argmin(const std::vector<gp::Prediction>& objective,
                       const std::vector<std::size_t>& safe_set, double beta);

/// The LCB value itself, for diagnostics.
double lcb_value(const gp::Prediction& p, double beta);

/// SafeOpt-style acquisition (Berkenkamp et al. [8]; Sui et al. [61]), for
/// the comparison discussed in §5: instead of minimizing the cost LCB, pick
/// the most *uncertain* point among the potential minimizers M_t (safe
/// points whose cost LCB beats the best safe cost UCB) and the expanders
/// G_t (safe points bordering the unsafe region — the practical
/// neighbourhood approximation of the expander set). The paper found this
/// converges much more slowly than eq. (9); bench_ablation_acquisition
/// reproduces that.
struct SafeOptInputs {
  const std::vector<gp::Prediction>* cost = nullptr;
  const std::vector<gp::Prediction>* delay = nullptr;
  const std::vector<gp::Prediction>* map = nullptr;
  const std::vector<std::size_t>* safe_set = nullptr;  // sorted indices
  double beta = 2.5;
};

/// `adjacency_offsets`/`adjacency` are the candidates' CSR adjacency (e.g.
/// env::ControlGrid::adjacency_offsets()/adjacency()): neighbors of i are
/// adjacency[offsets[i] .. offsets[i+1]). Throws std::invalid_argument on
/// empty safe sets or inconsistent sizes.
std::size_t safeopt_select(const SafeOptInputs& in,
                           std::span<const std::size_t> adjacency_offsets,
                           std::span<const std::size_t> adjacency);

/// Which acquisition rule drives exploration within the safe set.
enum class AcquisitionKind {
  kSafeLcb,    // eq. (9): EdgeBOL's safe contextual LCB (the paper's choice)
  kSafeOpt,    // SafeOpt-style max-width over minimizers+expanders (§5
               // ablation; needs the candidates' CSR adjacency)
  kGlobalLcb,  // LCB over the WHOLE grid, ignoring the safe set — the
               // unsafe-BO ablation quantifying what eq. (8) buys
};

struct FusedDecision {
  std::size_t index = 0;
  std::size_t safe_set_size = 0;     // |qualified  union  S0|
  bool fell_back_to_s0 = false;      // no candidate qualified on GP evidence
};

/// The sub-millisecond decision engine: one ascending sweep per round, on
/// the calling thread, that evaluates every candidate's constraint bounds
/// from the tracked posterior AND runs the acquisition scan on the same
/// candidate, with no heap allocation past configure(). The scan keeps the
/// reference scans' strict comparisons in the same index order, so every
/// decision — index, safe-set size, fallback flag — is bit-identical to the
/// full-rescan path.
class FusedAcquisition {
 public:
  /// Size for m candidates with initial safe set `s0` (indices into the
  /// candidate list; duplicates allowed — membership is what matters).
  void configure(std::size_t num_candidates, std::span<const std::size_t> s0);

  /// One decision round. `bounds` (at most 8, one per constraint) defines
  /// the safe set; `objective` supplies the LCB means/variances (its
  /// prior-mean offset is NOT applied — a constant offset cannot change an
  /// argmin). Every GP must track exactly num_candidates() candidates; its
  /// pending cache pass runs before the sweep. kSafeOpt additionally needs
  /// the CSR adjacency (offsets size m+1) for the expander test and runs a
  /// second sweep, because expander checks read the whole safety mask.
  /// Throws std::invalid_argument on a null or mis-sized GP, too many
  /// slots, a negative or non-finite beta, or an empty eligible set (only
  /// possible with an empty S0).
  FusedDecision decide(AcquisitionKind kind, std::span<const BoundSpec> bounds,
                       const gp::GpRegressor& objective, double beta,
                       std::span<const std::size_t> adjacency_offsets = {},
                       std::span<const std::size_t> adjacency = {});

  std::size_t num_candidates() const { return m_; }

 private:
  std::size_t m_ = 0;
  std::vector<std::uint8_t> s0_mask_;   // m_: 1 = member of S0
  std::vector<std::uint8_t> elig_mask_; // m_: 1 = safe this round (SafeOpt)
};

}  // namespace edgebol::core
