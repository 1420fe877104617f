#include "core/acquisition.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace edgebol::core {

double lcb_value(const gp::Prediction& p, double beta) {
  return p.mean - beta * p.stddev();
}

namespace {

// Shared core of the two safeopt_select overloads. `HasUnsafeNeighbor` is
// invoked only for non-minimizer safe points, with a predicate telling
// whether a given index is safe.
template <typename HasUnsafeNeighbor>
std::size_t safeopt_select_impl(const SafeOptInputs& in,
                                const HasUnsafeNeighbor& has_unsafe_neighbor) {
  if (in.cost == nullptr || in.delay == nullptr || in.map == nullptr ||
      in.safe_set == nullptr)
    throw std::invalid_argument("safeopt_select: null inputs");
  const auto& safe = *in.safe_set;
  if (safe.empty())
    throw std::invalid_argument("safeopt_select: empty safe set");
  const std::size_t m = in.cost->size();
  if (in.delay->size() != m || in.map->size() != m)
    throw std::invalid_argument("safeopt_select: posterior size mismatch");

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
    const bool expander = !minimizer && has_unsafe_neighbor(i, is_safe);
    if (!minimizer && !expander) continue;
    const double w = width(i);
    if (w > best_width) {
      best_width = w;
      best = i;
    }
  }
  return best;
}

}  // namespace

std::size_t safeopt_select(
    const SafeOptInputs& in,
    const std::function<std::vector<std::size_t>(std::size_t)>& neighbors) {
  return safeopt_select_impl(
      in, [&neighbors](std::size_t i, const auto& is_safe) {
        for (std::size_t nb : neighbors(i)) {
          if (!is_safe(nb)) return true;
        }
        return false;
      });
}

std::size_t safeopt_select(const SafeOptInputs& in,
                           std::span<const std::size_t> adjacency_offsets,
                           std::span<const std::size_t> adjacency) {
  if (in.cost != nullptr && adjacency_offsets.size() != in.cost->size() + 1)
    throw std::invalid_argument("safeopt_select: adjacency size mismatch");
  return safeopt_select_impl(
      in, [&](std::size_t i, const auto& is_safe) {
        const std::size_t lo = adjacency_offsets[i];
        const std::size_t hi = adjacency_offsets[i + 1];
        for (std::size_t a = lo; a < hi; ++a) {
          if (!is_safe(adjacency[a])) return true;
        }
        return false;
      });
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
    AcquisitionKind kind, SafeSetTracker& tracker,
    std::span<const BoundSpec> bounds, const gp::GpRegressor& objective,
    double beta, common::ThreadPool* pool,
    std::span<const std::size_t> adjacency_offsets,
    std::span<const std::size_t> adjacency) {
  constexpr std::size_t kMaxSlots = 8;
  if (m_ == 0)
    throw std::invalid_argument("FusedAcquisition: no candidates configured");
  if (tracker.num_candidates() != m_)
    throw std::invalid_argument(
        "FusedAcquisition: tracker candidate count mismatch");
  if (objective.num_tracked() != m_)
    throw std::invalid_argument(
        "FusedAcquisition: objective tracked-candidate count mismatch");
  if (bounds.size() > kMaxSlots)
    throw std::invalid_argument("FusedAcquisition: too many constraint slots");
  const bool safeopt = kind == AcquisitionKind::kSafeOpt;
  const bool global = kind == AcquisitionKind::kGlobalLcb;
  if (safeopt && adjacency_offsets.size() != m_ + 1)
    throw std::invalid_argument("FusedAcquisition: adjacency size mismatch");

  tracker.begin_round(bounds, beta);
  const std::size_t nc = bounds.size();
  const double* cmean = objective.tracked_mean_data();
  const double* cvar = objective.tracked_var_data();
  const std::uint8_t* s0m = s0_mask_.data();
  std::uint8_t* elig = elig_mask_.data();
  for (BlockPartial& bp : partials_) bp = BlockPartial{};

  // Per-slot scan state snapshotted into stack arrays (kMaxSlots-bounded):
  // pointers only, the bound values are written by maintain_block within
  // each block before that block's scan reads them.
  const double* bnd[kMaxSlots];
  const double* svar[kMaxSlots];
  double thr[kMaxSlots];
  bool up[kMaxSlots];
  for (std::size_t c = 0; c < nc; ++c) {
    bnd[c] = tracker.bound_data(c);
    svar[c] = tracker.slot_var_data(c);
    thr[c] = tracker.slot_threshold(c);
    up[c] = tracker.slot_upper(c);
  }

  try {
    // Fused sweep: bound maintenance + acquisition scan over one candidate
    // block per invocation, so a decision is one pool dispatch (two for
    // SafeOpt) instead of maintenance/safe-set/acquisition passes that each
    // pay a wake-up. The scan reproduces the reference scans operation for
    // operation — see the comparisons against compute_safe_set /
    // lcb_argmin / safeopt_select_impl noted inline.
    const auto sweep1 = [&](std::size_t j0, std::size_t j1) {
      tracker.maintain_block(j0, j1);
      BlockPartial& bp = partials_[j0 / kDecideBlock];
      // hot: decide
      for (std::size_t j = j0; j < j1; ++j) {
        bool qual = true;
        for (std::size_t c = 0; c < nc; ++c) {
          const double b = bnd[c][j];
          const bool pass = up[c] ? b <= thr[c] : b >= thr[c];
          qual = qual && pass;
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
      // sync: each block writes only its own partials_ entry, its own
      // candidate range of the tracker's bounds/stale arrays and of
      // elig_mask_; parallel_for joins before the serial merge reads them.
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
    if (global && !have_first) first_elig = 0;

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
      tracker.finish_round();
      return dec;
    }

    // SafeOpt pass 2: minimizers (cost LCB <= best safe cost UCB) and
    // expanders (safe points with an unsafe CSR neighbour) compete on
    // confidence-interval width. Needs the cross-block safety mask, hence
    // the barrier between the sweeps.
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
      // sync: pass 2 reads elig_mask_/cvar/svar (frozen since pass 1's
      // join) and writes only its own partials_ entry; parallel_for joins
      // before the merge.
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
    tracker.finish_round();
    return dec;
  } catch (...) {
    tracker.abort_round();
    throw;
  }
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
