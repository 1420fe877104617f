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
  n_blocks_ = m_ == 0 ? 0 : (m_ + kDecideBlock - 1) / kDecideBlock;
  s0_mask_.assign(m_, 0);
  for (std::size_t i : s0) {
    if (i >= m_)
      throw std::invalid_argument("FusedAcquisition: S0 index out of range");
    s0_mask_[i] = 1;
  }
  elig_mask_.assign(m_, 0);
  partials_.assign(n_blocks_, BlockPartial{});
}

FusedDecision FusedAcquisition::decide(
    AcquisitionKind kind, std::span<const BoundSpec> bounds,
    const gp::GpRegressor& objective, double beta, common::ThreadPool* pool,
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
  // run a pending cache pass, so every pointer is taken here, on the
  // calling thread, before the sweep dispatches; the blocks only read.
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
  for (BlockPartial& bp : partials_) bp = BlockPartial{};

  // Fused sweep: the safe-set test and the acquisition scan over one
  // candidate block per invocation, so a decision is one pool dispatch (two
  // for SafeOpt). The scan reproduces the reference scans operation for
  // operation — see the comparisons against compute_safe_set / lcb_argmin /
  // safeopt_select noted inline.
  const auto sweep1 = [&](std::size_t j0, std::size_t j1) {
    BlockPartial& bp = partials_[j0 / kDecideBlock];
    // hot: decide
    for (std::size_t j = j0; j < j1; ++j) {
      // Reference compute_safe_set over prior-mean-shifted predictions:
      //   upper (sgn=+1): fl(fl(mean+off) + fl(beta*sigma)) <= thr
      //   lower (sgn=-1): fl(fl(mean+off) - fl(beta*sigma)) >= thr
      // (multiplying by +-1.0 is exact, x + (-y) == x - y bitwise, and the
      // variance clamp mirrors Prediction::stddev()).
      bool qual = true;
      for (std::size_t c = 0; c < nc && qual; ++c) {
        const double b =
            (smean[c][j] + off[c]) +
            sgn[c] * (beta * std::sqrt(std::max(0.0, svar[c][j])));
        qual = up[c] ? b <= thr[c] : b >= thr[c];
      }
      const bool in_union = qual || s0m[j] != 0;
      bp.qual_count += qual ? 1u : 0u;
      bp.safe_count += in_union ? 1u : 0u;
      if (safeopt) {
        elig[j] = in_union ? 1 : 0;
        if (in_union) {
          if (!bp.has_elig) {
            bp.first_elig = j;
            bp.has_elig = true;
          }
          // Reference: min_ucb = min(min_ucb, mean + beta * stddev()).
          const double ucb =
              cmean[j] + beta * std::sqrt(std::max(0.0, cvar[j]));
          if (ucb < bp.ucb_min) bp.ucb_min = ucb;
        }
      } else if (global || in_union) {
        if (!bp.has_elig) {
          bp.first_elig = j;
          bp.has_elig = true;
        }
        // Reference lcb_argmin: strict < against a +inf initializer, first
        // minimum in ascending index order wins.
        const double v = cmean[j] - beta * std::sqrt(std::max(0.0, cvar[j]));
        if (v < bp.best_v) {
          bp.best_v = v;
          bp.best_idx = j;
          bp.has_best = true;
        }
      }
    }
    // hot: end
  };
  if (pool != nullptr) {
    // sync: each block writes only its own partials_ entry and its own
    // candidate range of elig_mask_, and reads the tracked arrays, which
    // nothing writes during the sweep; parallel_for joins before the serial
    // merge reads them.
    pool->parallel_for(m_, kDecideBlock, sweep1);
  } else {
    for (std::size_t j0 = 0; j0 < m_; j0 += kDecideBlock) {
      sweep1(j0, std::min(m_, j0 + kDecideBlock));
    }
  }

  FusedDecision dec;
  std::size_t qual_count = 0;
  std::size_t safe_count = 0;
  for (const BlockPartial& bp : partials_) {
    qual_count += bp.qual_count;
    safe_count += bp.safe_count;
  }
  dec.fell_back_to_s0 = qual_count == 0;
  dec.safe_set_size = safe_count;

  // First eligible index overall — the reference scans' initializer (it
  // wins when no comparison fires, e.g. all-NaN posteriors).
  std::size_t first_elig = 0;
  bool have_first = false;
  for (const BlockPartial& bp : partials_) {
    if (bp.has_elig) {
      first_elig = bp.first_elig;
      have_first = true;
      break;
    }
  }
  if (!global && !have_first)
    throw std::invalid_argument("FusedAcquisition: empty safe set");

  if (!safeopt) {
    // Ascending-block merge with the same strict < as the reference loop:
    // ties resolve to the earliest block, i.e. the first global argmin.
    double best_v = std::numeric_limits<double>::infinity();
    std::size_t best = first_elig;
    for (const BlockPartial& bp : partials_) {
      if (bp.has_best && bp.best_v < best_v) {
        best_v = bp.best_v;
        best = bp.best_idx;
      }
    }
    dec.index = best;
    return dec;
  }

  // SafeOpt pass 2: minimizers (cost LCB <= best safe cost UCB) and
  // expanders (safe points with an unsafe CSR neighbour) compete on
  // confidence-interval width. Needs the cross-block safety mask, hence the
  // barrier between the sweeps.
  double ucb_min = std::numeric_limits<double>::infinity();
  for (const BlockPartial& bp : partials_) {
    if (bp.ucb_min < ucb_min) ucb_min = bp.ucb_min;
  }
  const std::size_t* aoff = adjacency_offsets.data();
  const std::size_t* anb = adjacency.data();
  const auto sweep2 = [&](std::size_t j0, std::size_t j1) {
    BlockPartial& bp = partials_[j0 / kDecideBlock];
    // hot: decide
    for (std::size_t j = j0; j < j1; ++j) {
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
      // left-associated in slot order; strict > against a -1.0
      // initializer, first maximum in ascending order wins.
      double wsum = sc;
      for (std::size_t c = 0; c < nc; ++c) {
        wsum += std::sqrt(std::max(0.0, svar[c][j]));
      }
      const double w = 2.0 * beta * wsum;
      if (w > bp.best_w) {
        bp.best_w = w;
        bp.w_idx = j;
        bp.has_w = true;
      }
    }
    // hot: end
  };
  if (pool != nullptr) {
    // sync: pass 2 reads elig_mask_/cvar/svar (frozen since pass 1's join)
    // and writes only its own partials_ entry; parallel_for joins before
    // the merge.
    pool->parallel_for(m_, kDecideBlock, sweep2);
  } else {
    for (std::size_t j0 = 0; j0 < m_; j0 += kDecideBlock) {
      sweep2(j0, std::min(m_, j0 + kDecideBlock));
    }
  }

  double best_w = -1.0;
  std::size_t best = first_elig;
  for (const BlockPartial& bp : partials_) {
    if (bp.has_w && bp.best_w > best_w) {
      best_w = bp.best_w;
      best = bp.w_idx;
    }
  }
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
