#include "core/acquisition.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace edgebol::core {

double lcb_value(const gp::Prediction& p, double beta) {
  return p.mean - beta * p.stddev();
}

std::size_t safeopt_select(const SafeOptInputs& in,
                           std::span<const std::size_t> adjacency_offsets,
                           std::span<const std::size_t> adjacency) {
  if (in.cost == nullptr || in.delay == nullptr || in.map == nullptr ||
      in.safe_set == nullptr)
    throw std::invalid_argument("safeopt_select: null inputs");
  const auto& safe = *in.safe_set;
  if (safe.empty())
    throw std::invalid_argument("safeopt_select: empty safe set");
  const std::size_t m = in.cost->size();
  if (in.delay->size() != m || in.map->size() != m)
    throw std::invalid_argument("safeopt_select: posterior size mismatch");
  if (adjacency_offsets.size() != m + 1)
    throw std::invalid_argument("safeopt_select: adjacency size mismatch");

  // Best pessimistic cost among safe points.
  double min_ucb = std::numeric_limits<double>::infinity();
  for (std::size_t i : safe) {
    if (i >= m) throw std::invalid_argument("safeopt_select: index range");
    min_ucb = std::min(min_ucb,
                       (*in.cost)[i].mean + in.beta * (*in.cost)[i].stddev());
  }

  auto is_safe = [&safe](std::size_t i) {
    return std::binary_search(safe.begin(), safe.end(), i);
  };
  auto has_unsafe_neighbor = [&](std::size_t i) {
    for (std::size_t a = adjacency_offsets[i]; a < adjacency_offsets[i + 1];
         ++a) {
      if (!is_safe(adjacency[a])) return true;
    }
    return false;
  };
  auto width = [&](std::size_t i) {
    return 2.0 * in.beta *
           ((*in.cost)[i].stddev() + (*in.delay)[i].stddev() +
            (*in.map)[i].stddev());
  };

  std::size_t best = safe.front();
  double best_width = -1.0;
  for (std::size_t i : safe) {
    const bool minimizer =
        (*in.cost)[i].mean - in.beta * (*in.cost)[i].stddev() <= min_ucb;
    const bool expander = !minimizer && has_unsafe_neighbor(i);
    if (!minimizer && !expander) continue;
    const double w = width(i);
    if (w > best_width) {
      best_width = w;
      best = i;
    }
  }
  return best;
}

void FusedAcquisition::configure(std::size_t num_candidates,
                                 std::span<const std::size_t> s0) {
  m_ = num_candidates;
  s0_mask_.assign(m_, 0);
  for (std::size_t i : s0) {
    if (i >= m_)
      throw std::invalid_argument("FusedAcquisition: S0 index out of range");
    s0_mask_[i] = 1;
  }
  elig_mask_.assign(m_, 0);
}

FusedDecision FusedAcquisition::decide(
    AcquisitionKind kind, std::span<const BoundSpec> bounds,
    const gp::GpRegressor& objective, double beta,
    std::span<const std::size_t> adjacency_offsets,
    std::span<const std::size_t> adjacency) {
  constexpr std::size_t kMaxSlots = 8;
  if (m_ == 0)
    throw std::invalid_argument("FusedAcquisition: no candidates configured");
  if (objective.num_tracked() != m_)
    throw std::invalid_argument(
        "FusedAcquisition: objective tracked-candidate count mismatch");
  if (bounds.size() > kMaxSlots)
    throw std::invalid_argument("FusedAcquisition: too many constraint slots");
  if (!(beta >= 0.0) || !std::isfinite(beta))
    throw std::invalid_argument("FusedAcquisition: beta must be finite >= 0");
  const bool safeopt = kind == AcquisitionKind::kSafeOpt;
  const bool global = kind == AcquisitionKind::kGlobalLcb;
  if (safeopt && adjacency_offsets.size() != m_ + 1)
    throw std::invalid_argument("FusedAcquisition: adjacency size mismatch");

  // Per-slot state in stack arrays (kMaxSlots-bounded). The tracked readers
  // run a pending cache pass, so every pointer is taken before the sweep.
  const std::size_t nc = bounds.size();
  const double* smean[kMaxSlots];
  const double* svar[kMaxSlots];
  double off[kMaxSlots];
  double sgn[kMaxSlots];  // +1 upper bound, -1 lower bound
  double thr[kMaxSlots];
  bool up[kMaxSlots];
  for (std::size_t c = 0; c < nc; ++c) {
    const BoundSpec& spec = bounds[c];
    if (spec.gp == nullptr)
      throw std::invalid_argument("FusedAcquisition: null GP in bound spec");
    if (spec.gp->num_tracked() != m_)
      throw std::invalid_argument(
          "FusedAcquisition: bound GP tracked-candidate count mismatch");
    smean[c] = spec.gp->tracked_mean_data();
    svar[c] = spec.gp->tracked_var_data();
    off[c] = spec.offset;
    sgn[c] = spec.upper ? 1.0 : -1.0;
    thr[c] = spec.threshold;
    up[c] = spec.upper;
  }
  const double* cmean = objective.tracked_mean_data();
  const double* cvar = objective.tracked_var_data();
  const std::uint8_t* s0m = s0_mask_.data();
  std::uint8_t* elig = elig_mask_.data();

  // Fused sweep: the safe-set test and the acquisition scan per candidate,
  // in ascending index order. It reproduces the reference scans operation
  // for operation — see the comparisons against compute_safe_set /
  // lcb_argmin / safeopt_select noted inline.
  std::size_t qual_count = 0;
  std::size_t safe_count = 0;
  bool have_first = false;
  std::size_t best = 0;
  double best_v = std::numeric_limits<double>::infinity();
  double ucb_min = std::numeric_limits<double>::infinity();
  // hot: decide
  for (std::size_t j = 0; j < m_; ++j) {
    // Reference compute_safe_set over prior-mean-shifted predictions:
    //   upper (sgn=+1): fl(fl(mean+off) + fl(beta*sigma)) <= thr
    //   lower (sgn=-1): fl(fl(mean+off) - fl(beta*sigma)) >= thr
    // (multiplying by +-1.0 is exact, x + (-y) == x - y bitwise, and the
    // variance clamp mirrors Prediction::stddev()).
    bool qual = true;
    for (std::size_t c = 0; c < nc && qual; ++c) {
      const double b = (smean[c][j] + off[c]) +
                       sgn[c] * (beta * std::sqrt(std::max(0.0, svar[c][j])));
      qual = up[c] ? b <= thr[c] : b >= thr[c];
    }
    const bool in_union = qual || s0m[j] != 0;
    qual_count += qual ? 1u : 0u;
    safe_count += in_union ? 1u : 0u;
    if (safeopt) elig[j] = in_union ? 1 : 0;
    if (!global && !in_union) continue;
    // The reference scans' initializer: the first eligible index wins when
    // no comparison fires (e.g. all-NaN posteriors).
    if (!have_first) {
      best = j;
      have_first = true;
    }
    if (safeopt) {
      // Reference: min_ucb = min(min_ucb, mean + beta * stddev()).
      const double ucb = cmean[j] + beta * std::sqrt(std::max(0.0, cvar[j]));
      if (ucb < ucb_min) ucb_min = ucb;
    } else {
      // Reference lcb_argmin: strict < against a +inf initializer, first
      // minimum in ascending index order wins.
      const double v = cmean[j] - beta * std::sqrt(std::max(0.0, cvar[j]));
      if (v < best_v) {
        best_v = v;
        best = j;
      }
    }
  }
  // hot: end
  if (!have_first)
    throw std::invalid_argument("FusedAcquisition: empty safe set");

  FusedDecision dec;
  dec.safe_set_size = safe_count;
  dec.fell_back_to_s0 = qual_count == 0;
  if (!safeopt) {
    dec.index = best;
    return dec;
  }

  // SafeOpt pass 2: minimizers (cost LCB <= best safe cost UCB) and
  // expanders (safe points with an unsafe CSR neighbour) compete on
  // confidence-interval width. Expanders read the safety mask of any
  // candidate, hence the second sweep.
  const std::size_t* aoff = adjacency_offsets.data();
  const std::size_t* anb = adjacency.data();
  double best_w = -1.0;  // `best` still holds the first eligible index
  // hot: decide
  for (std::size_t j = 0; j < m_; ++j) {
    if (elig[j] == 0) continue;
    const double sc = std::sqrt(std::max(0.0, cvar[j]));
    const bool minimizer = cmean[j] - beta * sc <= ucb_min;
    if (!minimizer) {
      bool expander = false;
      for (std::size_t a = aoff[j]; a < aoff[j + 1]; ++a) {
        if (elig[anb[a]] == 0) {
          expander = true;
          break;
        }
      }
      if (!expander) continue;
    }
    // Reference width: 2.0 * beta * (sigma_obj + sigma_c0 + sigma_c1 ...),
    // left-associated in slot order; strict > against a -1.0 initializer,
    // first maximum in ascending order wins.
    double wsum = sc;
    for (std::size_t c = 0; c < nc; ++c) {
      wsum += std::sqrt(std::max(0.0, svar[c][j]));
    }
    const double w = 2.0 * beta * wsum;
    if (w > best_w) {
      best_w = w;
      best = j;
    }
  }
  // hot: end
  dec.index = best;
  return dec;
}

std::size_t lcb_argmin(const std::vector<gp::Prediction>& objective,
                       const std::vector<std::size_t>& safe_set, double beta) {
  if (safe_set.empty())
    throw std::invalid_argument("lcb_argmin: empty safe set");
  std::size_t best = safe_set.front();
  double best_v = std::numeric_limits<double>::infinity();
  for (std::size_t i : safe_set) {
    if (i >= objective.size())
      throw std::invalid_argument("lcb_argmin: index out of range");
    const double v = lcb_value(objective[i], beta);
    if (v < best_v) {
      best_v = v;
      best = i;
    }
  }
  return best;
}

}  // namespace edgebol::core
