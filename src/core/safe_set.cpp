#include "core/safe_set.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace edgebol::core {

namespace {

// Padding factors turning the GP delta-magnitude accumulators into safe
// bounds on how far a stored confidence bound can have drifted:
//   - each fold does mean = fl(mean + dm); |fl(a + b) - a| <= 2|b|, so the
//     mean moves at most 2 * sum|dm| — kMeanPad = 4 doubles that again for
//     the rounding of the accumulator sums themselves;
//   - each fold moves the variance by at most 2 a^2, and sum 2 a^2 <=
//     2 (sum|a|)^2, so |delta sigma| <= sqrt(2) * sum|a| by sqrt
//     subadditivity — kSigmaPad = 3 covers sqrt(2) with margin.
// Over-estimating the drift only forces extra (exact) rescores, never a
// wrong classification.
constexpr double kMeanPad = 4.0;
constexpr double kSigmaPad = 3.0;

// Relative guard on the skip test: the slack comparison itself rounds, so
// require the bound-to-threshold gap to beat the slack by ~1e-12 of the
// operand scale (3+ orders above double rounding) before trusting a skip.
constexpr double kSkipGuard = 1e-12;

// The ONE bound expression, shared by the full and incremental paths — and
// matching the reference rescan (compute_safe_set over prior-mean-shifted
// posteriors) operation for operation, so the stored bound is bitwise what
// the full rescan would compute:
//   upper (sgn=+1): fl(fl(mean+off) + fl(beta*sigma))
//   lower (sgn=-1): fl(fl(mean+off) - fl(beta*sigma))
// (multiplying by +-1.0 is exact; x + (-y) == x - y bitwise; the variance
// clamp mirrors Prediction::stddev()).
inline double eval_bound(double mean, double var, double off, double sgn,
                         double beta) {
  return (mean + off) + sgn * (beta * std::sqrt(std::max(0.0, var)));
}

}  // namespace

std::vector<std::size_t> compute_safe_set(
    const std::vector<gp::Prediction>& delay_posterior,
    const std::vector<gp::Prediction>& map_posterior, double d_max,
    double map_min, double beta, const std::vector<std::size_t>& s0) {
  if (delay_posterior.size() != map_posterior.size())
    throw std::invalid_argument("compute_safe_set: posterior size mismatch");
  if (beta < 0.0)
    throw std::invalid_argument("compute_safe_set: beta must be >= 0");

  std::vector<std::size_t> safe;
  for (std::size_t i = 0; i < delay_posterior.size(); ++i) {
    const gp::Prediction& d = delay_posterior[i];
    const gp::Prediction& m = map_posterior[i];
    const bool delay_ok = d.mean + beta * d.stddev() <= d_max;
    const bool map_ok = m.mean - beta * m.stddev() >= map_min;
    if (delay_ok && map_ok) safe.push_back(i);
  }

  for (std::size_t i : s0) {
    if (i >= delay_posterior.size())
      throw std::invalid_argument("compute_safe_set: S0 index out of range");
    safe.push_back(i);
  }
  std::sort(safe.begin(), safe.end());
  safe.erase(std::unique(safe.begin(), safe.end()), safe.end());
  return safe;
}

void SafeSetTracker::configure(std::size_t num_candidates,
                               std::size_t num_constraints) {
  m_ = num_candidates;
  c_ = num_constraints;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  bounds_.assign(c_ * m_, nan);
  stale_.assign(c_ * m_, 0.0);
  epochs_.assign(c_, 0);
  slot_gps_.assign(c_, nullptr);  // != any real GP: first round is full
  slot_offs_.assign(c_, 0.0);
  slot_uppers_.assign(c_, 2);  // != any bool: first round is full
  slots_.clear();
  slots_.reserve(c_);
  rescored_.assign(m_ == 0 ? 0 : (m_ + kDecideBlock - 1) / kDecideBlock, 0);
  force_full_ = true;
  have_beta_ = false;
  in_round_ = false;
  full_rounds_ = 0;
  last_rescored_ = 0;
}

void SafeSetTracker::begin_round(std::span<const BoundSpec> bounds,
                                 double beta) {
  if (bounds.size() != c_)
    throw std::invalid_argument("SafeSetTracker: slot count mismatch");
  if (!(beta >= 0.0) || !std::isfinite(beta))
    throw std::invalid_argument("SafeSetTracker: beta must be finite >= 0");
  if (in_round_)
    throw std::logic_error("SafeSetTracker: round already open");

  // A beta change rescales every stored bound at once.
  const bool beta_changed = !have_beta_ || beta != last_beta_;
  round_beta_ = beta;
  slots_.clear();
  for (std::size_t c = 0; c < c_; ++c) {
    const BoundSpec& spec = bounds[c];
    if (spec.gp == nullptr)
      throw std::invalid_argument("SafeSetTracker: null GP in bound spec");
    if (spec.gp->num_tracked() != m_)
      throw std::invalid_argument(
          "SafeSetTracker: GP tracked-candidate count mismatch");
    Slot sl;
    sl.mean = spec.gp->tracked_mean_data();
    sl.var = spec.gp->tracked_var_data();
    sl.dmu = spec.gp->tracked_delta_mean_data();
    sl.dsg = spec.gp->tracked_delta_sigma_data();
    sl.gp = spec.gp;
    sl.off = spec.offset;
    sl.thr = spec.threshold;
    sl.upper = spec.upper;
    sl.sgn = spec.upper ? 1.0 : -1.0;
    // Anything that invalidates the stored bounds (beyond what the delta
    // accumulators describe) forces an exact full rescore of this slot:
    // explicit invalidate(), a beta change, a tracked-cache rebuild (epoch),
    // or the slot binding a different GP / offset / direction than last
    // round. Threshold changes are NOT here — bounds are
    // threshold-independent and the skip test compares against the current
    // threshold each round.
    sl.full = force_full_ || beta_changed ||
              spec.gp->tracked_rebuild_epoch() != epochs_[c] ||
              spec.gp != slot_gps_[c] || spec.offset != slot_offs_[c] ||
              static_cast<std::uint8_t>(spec.upper) != slot_uppers_[c];
    slots_.push_back(sl);
  }
  for (std::size_t& r : rescored_) r = 0;
  in_round_ = true;
}

void SafeSetTracker::maintain_block(std::size_t j0, std::size_t j1) {
  if (!in_round_)
    throw std::logic_error("SafeSetTracker: maintain_block outside a round");
  const double beta = round_beta_;
  std::size_t rescored = 0;
  for (std::size_t c = 0; c < slots_.size(); ++c) {
    const Slot& sl = slots_[c];
    double* bnd = bounds_.data() + c * m_;
    double* stl = stale_.data() + c * m_;
    const double* mean = sl.mean;
    const double* var = sl.var;
    const double off = sl.off;
    const double sgn = sl.sgn;
    const double thr = sl.thr;
    if (sl.full) {
      // hot: decide
      for (std::size_t j = j0; j < j1; ++j) {
        bnd[j] = eval_bound(mean[j], var[j], off, sgn, beta);
        stl[j] = 0.0;
      }
      // hot: end
      rescored += j1 - j0;
      continue;
    }
    const double* dmu = sl.dmu;
    const double* dsg = sl.dsg;
    // hot: decide
    for (std::size_t j = j0; j < j1; ++j) {
      // Slack budget: previously accumulated drift plus this round's
      // padded delta bound.
      const double s = stl[j] + (kMeanPad * dmu[j] + beta * (kSigmaPad * dsg[j]));
      if (s == 0.0) continue;  // bitwise-unchanged posterior: bound is exact
      const double b = bnd[j];
      const double gap = std::abs(thr - b);
      if (s + kSkipGuard * (std::abs(b) + std::abs(thr)) < gap) {
        // The true bound sits within s of b, strictly on b's side of the
        // threshold: the stored classification cannot have flipped.
        stl[j] = s;
        continue;
      }
      bnd[j] = eval_bound(mean[j], var[j], off, sgn, beta);
      stl[j] = 0.0;
      ++rescored;
    }
    // hot: end
  }
  rescored_[j0 / kDecideBlock] += rescored;
}

void SafeSetTracker::finish_round() {
  if (!in_round_)
    throw std::logic_error("SafeSetTracker: finish_round outside a round");
  bool any_full = false;
  for (std::size_t c = 0; c < c_; ++c) {
    const Slot& sl = slots_[c];
    epochs_[c] = sl.gp->tracked_rebuild_epoch();
    slot_gps_[c] = sl.gp;
    slot_offs_[c] = sl.off;
    slot_uppers_[c] = static_cast<std::uint8_t>(sl.upper);
    any_full = any_full || sl.full;
    // The bounds now reflect the GPs' current tracked posteriors (either
    // rescored exactly or proven classification-stable with the drift
    // absorbed into stale_): consume the delta accumulators — once per
    // DISTINCT GP, so a surrogate bound by several slots feeds them all
    // before being reset.
    bool first_binding = true;
    for (std::size_t p = 0; p < c; ++p) {
      if (slots_[p].gp == sl.gp) {
        first_binding = false;
        break;
      }
    }
    if (first_binding) sl.gp->reset_tracked_deltas();
  }
  last_beta_ = round_beta_;
  have_beta_ = true;
  force_full_ = false;
  if (any_full) ++full_rounds_;
  last_rescored_ = 0;
  for (std::size_t r : rescored_) last_rescored_ += r;
  in_round_ = false;
}

}  // namespace edgebol::core
