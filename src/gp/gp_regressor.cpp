#include "gp/gp_regressor.hpp"

#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>
#include <type_traits>

#include "gp/lanes.hpp"

namespace edgebol::gp {

namespace {

// Candidate-column block width for the packed cache kernels. Fixed (never a
// function of the thread count) so the parallel partition — and therefore
// the result, bit for bit — is identical for any pool size. 512 columns keep
// a block's active rows within L1/L2 while leaving ~29 blocks of work per
// rebuild of the 11^4 grid; it is a multiple of every width's substitution
// tile (8 or 16 columns), so only a grid's last block has a ragged (scalar)
// tail.
constexpr std::size_t kColumnGrain = 512;

using lanes::f64x2;
using lanes::f64x4;
using lanes::f64x8;
using lanes::load;
using lanes::store;

// Runs op(lane, j) over columns [j0, j1): whole lanes of V, then a scalar
// tail; `lane` names the lane type (std::type_identity<V> or <double>), so
// no callback takes a vector by value (gp/lanes.hpp). Lanes are plain IEEE
// operations, so a column's operation sequence does not depend on the path.
template <class V, class Op>
void for_lanes(std::size_t j0, std::size_t j1, const Op& op) {
  constexpr std::size_t kLanes = sizeof(V) / sizeof(double);
  std::size_t j = j0;
  for (; j + kLanes <= j1; j += kLanes) op(std::type_identity<V>{}, j);
  for (; j < j1; ++j) op(std::type_identity<double>{}, j);
}

// One fold/evict pass over columns [j0, j1) at lane type V (lanes::PassState
// and lanes::stream_columns in gp/lanes.hpp). Each cache row is loaded once
// and stored at most once.
template <class V>
void stream_columns_in(const lanes::PassState& p, std::size_t j0,
                       std::size_t j1, double* acc, double* carry) {
  const std::size_t m = p.m;
  const std::size_t n = p.rows;
  double* a = p.a;
  // Rows from `first` on are rotated: the victim, or none.
  const std::size_t first = p.evict ? std::min(p.victim, n) : n;

  if (p.fold) {
    // Rows above the victim only feed the fold.
    for (std::size_t i = 0; i < first; ++i) {
      const double li = p.lrow[i];
      const double* ai = a + i * m;
      for_lanes<V>(j0, j1, [&](auto lane, std::size_t j) {
        using L = typename decltype(lane)::type;
        double* s = acc + (j - j0);
        store(s, load<L>(s) - li * load<L>(ai + j));
      });
    }
  }

  // The victim row seeds the carry. Each later row is loaded once, feeds the
  // fold, and is rotated against the carry; the rotation's first output is
  // final for the row above and is stored once.
  const auto rotate_rows = [&](auto with_fold) {
    constexpr bool kFold = decltype(with_fold)::value;
    const double* av = a + first * m;
    const double lv = kFold ? p.lrow[first] : 0.0;
    for_lanes<V>(j0, j1, [&](auto lane, std::size_t j) {
      using L = typename decltype(lane)::type;
      const L x = load<L>(av + j);
      if constexpr (kFold) {
        double* s = acc + (j - j0);
        store(s, load<L>(s) - lv * x);
      }
      store(carry + (j - j0), x);
    });
    for (std::size_t i = first + 1; i < n; ++i) {
      const double c = p.rotations[i - first - 1].c;
      const double s = p.rotations[i - first - 1].s;
      const double li = kFold ? p.lrow[i] : 0.0;
      double* ai = a + i * m;
      double* above = ai - m;
      for_lanes<V>(j0, j1, [&](auto lane, std::size_t j) {
        using L = typename decltype(lane)::type;
        const L b = load<L>(ai + j);
        if constexpr (kFold) {
          double* q = acc + (j - j0);
          store(q, load<L>(q) - li * b);
        }
        double* k = carry + (j - j0);
        const L x = load<L>(k);
        store(above + j, c * x + s * b);
        store(k, c * b - s * x);
      });
    }
  };
  if (first < n) {
    if (p.fold) {
      rotate_rows(std::true_type{});
    } else {
      rotate_rows(std::false_type{});
    }
  }

  // The new row: divided by the pivot, folded into the moments, then stored
  // (fold only) or rotated against the carry (its rotation is the last). The
  // row that leaves — the carry, the rotated new row, or the new row itself
  // when it is the victim — folds out last.
  const auto fold_in = [&](const auto& x, std::size_t j) {
    using L = std::remove_cvref_t<decltype(x)>;
    store(p.mean + j, load<L>(p.mean + j) + x * p.w_new);
    store(p.var + j, load<L>(p.var + j) - x * x);
  };
  const auto fold_out = [&](const auto& x, std::size_t j) {
    using L = std::remove_cvref_t<decltype(x)>;
    store(p.mean + j, load<L>(p.mean + j) - x * p.w_last);
    store(p.var + j, load<L>(p.var + j) + x * x);
  };
  const linalg::GivensRotation last_rot =
      p.fold && first < n ? p.rotations[n - first - 1]
                          : linalg::GivensRotation{};
  for_lanes<V>(j0, j1, [&](auto lane, std::size_t j) {
    using L = typename decltype(lane)::type;
    if (!p.fold) {
      fold_out(load<L>(carry + (j - j0)), j);
      return;
    }
    const L an = load<L>(acc + (j - j0)) / p.pivot;
    fold_in(an, j);
    if (!p.evict) {
      store(a + n * m + j, an);
    } else if (first == n) {
      fold_out(an, j);
    } else {
      const L x = load<L>(carry + (j - j0));
      store(a + (n - 1) * m + j, last_rot.c * x + last_rot.s * an);
      fold_out(last_rot.c * an - last_rot.s * x, j);
    }
  });
}

// Register tile of the rebuild's forward substitution at lane type V:
// kRows rows of A by kCols columns, held as lanes. 2-lane SSE2 and 4-lane
// AVX2 run 3 x 8; 8-lane AVX-512F needs 4 x 16 (8 zmm accumulators) to beat
// the 4-lane tile, which it merely matches at 3 x 8. Plain double arrays of
// the same shape get spilled to the stack, and so do the lanes unless the
// tile's fixed-trip loops unroll fully: -O3 does that on its own, -O2
// (scripts/check.sh's release tier) only under the `#pragma GCC unroll`s
// below. GCC 12 takes no template-dependent count there, so they name the
// largest tile's trip counts, which unroll every smaller tile fully too.
template <class V>
struct Tile {
  static constexpr std::size_t kRows = 3;
  static constexpr std::size_t kCols = 8;
};
template <>
struct Tile<f64x8> {
  static constexpr std::size_t kRows = 4;
  static constexpr std::size_t kCols = 16;
};
constexpr std::size_t kMaxTileRows = 4;     // Tile<f64x8>::kRows
constexpr std::size_t kMaxTileVectors = 4;  // Tile<f64x2>: 8 columns / 2

// Finish rows [i0, i0 + R) of A = L^{-1} K over the C vectors of V that
// start at column j, in place. On entry those rows hold kernel values and
// rows < i0 are final. Each element gets its subtractions in ascending k
// (rows above the tile stream past it, then the already-divided rows inside
// it), then its division by l_ii, then its mean/variance folds in ascending
// i — the same operation sequence as a row-at-a-time sweep or an add() fold,
// so the cache is bitwise independent of the tiling and of how it was built.
template <std::size_t R, std::size_t C, class V>
void substitute_tile(const linalg::CholeskyFactor& chol, const double* w,
                     double* a, std::size_t m, std::size_t i0, std::size_t j,
                     double* mean, double* var) {
  static_assert(R <= kMaxTileRows && C <= kMaxTileVectors);
  constexpr std::size_t kLanes = sizeof(V) / sizeof(double);
  const double* l[R];
  V t[R][C];
#pragma GCC unroll kMaxTileRows
  for (std::size_t r = 0; r < R; ++r) {
    l[r] = chol.row_data(i0 + r);
#pragma GCC unroll kMaxTileVectors
    for (std::size_t c = 0; c < C; ++c) {
      t[r][c] = load<V>(a + (i0 + r) * m + j + c * kLanes);
    }
  }
  for (std::size_t k = 0; k < i0; ++k) {
    const double* ak = a + k * m + j;
#pragma GCC unroll kMaxTileVectors
    for (std::size_t c = 0; c < C; ++c) {
      const V x = load<V>(ak + c * kLanes);
#pragma GCC unroll kMaxTileRows
      for (std::size_t r = 0; r < R; ++r) t[r][c] -= l[r][k] * x;
    }
  }
#pragma GCC unroll kMaxTileRows
  for (std::size_t r = 0; r < R; ++r) {
    const double lii = l[r][i0 + r];
    const double wi = w[i0 + r];
    double* ai = a + (i0 + r) * m + j;
#pragma GCC unroll kMaxTileVectors
    for (std::size_t c = 0; c < C; ++c) {
#pragma GCC unroll kMaxTileRows
      for (std::size_t q = 0; q < r; ++q) t[r][c] -= l[r][i0 + q] * t[q][c];
      t[r][c] /= lii;
      store(ai + c * kLanes, t[r][c]);
      double* mu = mean + j + c * kLanes;
      double* s2 = var + j + c * kLanes;
      store(mu, load<V>(mu) + t[r][c] * wi);
      store(s2, load<V>(s2) - t[r][c] * t[r][c]);
    }
  }
}

// The last `rows` (< R) rows of a panel from row i0: one tile of that many.
template <std::size_t R, std::size_t C, class V>
void substitute_last_rows(const linalg::CholeskyFactor& chol,
                          const double* w, double* a, std::size_t m,
                          std::size_t rows, std::size_t i0, std::size_t j,
                          double* mean, double* var) {
  if constexpr (R > 1) {
    if (rows == R - 1) {
      substitute_tile<R - 1, C, V>(chol, w, a, m, i0, j, mean, var);
    } else {
      substitute_last_rows<R - 1, C, V>(chol, w, a, m, rows, i0, j, mean,
                                        var);
    }
  }
}

// All n rows of one column panel, in R-row tiles with a ragged last tile.
template <std::size_t R, std::size_t C, class V>
void substitute_panel(const linalg::CholeskyFactor& chol, const double* w,
                      double* a, std::size_t m, std::size_t n, std::size_t j,
                      double* mean, double* var) {
  std::size_t i0 = 0;
  for (; i0 + R <= n; i0 += R) {
    substitute_tile<R, C, V>(chol, w, a, m, i0, j, mean, var);
  }
  substitute_last_rows<R, C, V>(chol, w, a, m, n - i0, i0, j, mean, var);
}

// Columns [j0, j1) of the rebuild's substitution: Tile<V> panels in lanes
// of type V, then the ragged tail one scalar column at a time.
template <class V>
void substitute_columns_in(const linalg::CholeskyFactor& chol,
                           const double* w, double* a, std::size_t m,
                           std::size_t n, std::size_t j0, std::size_t j1,
                           double* mean, double* var) {
  constexpr std::size_t kLanes = sizeof(V) / sizeof(double);
  constexpr std::size_t kRows = Tile<V>::kRows;
  constexpr std::size_t kCols = Tile<V>::kCols;
  static_assert(kCols % kLanes == 0, "a panel is whole lanes");
  static_assert(kColumnGrain % kCols == 0, "a block is whole panels");
  std::size_t j = j0;
  for (; j + kCols <= j1; j += kCols) {
    substitute_panel<kRows, kCols / kLanes, V>(chol, w, a, m, n, j, mean,
                                               var);
  }
  for (; j < j1; ++j) {
    substitute_panel<kRows, 1, double>(chol, w, a, m, n, j, mean, var);
  }
}

// The clones: each instantiates its loop's template at its width, flattened
// so that every template it calls is compiled at the clone's target.
[[gnu::flatten]] void substitute_columns_sse2(
    const linalg::CholeskyFactor& chol, const double* w, double* a,
    std::size_t m, std::size_t n, std::size_t j0, std::size_t j1,
    double* mean, double* var) {
  substitute_columns_in<f64x2>(chol, w, a, m, n, j0, j1, mean, var);
}

[[gnu::target("avx2"), gnu::flatten]] void substitute_columns_avx2(
    const linalg::CholeskyFactor& chol, const double* w, double* a,
    std::size_t m, std::size_t n, std::size_t j0, std::size_t j1,
    double* mean, double* var) {
  substitute_columns_in<f64x4>(chol, w, a, m, n, j0, j1, mean, var);
}

[[gnu::target("avx512f"), gnu::flatten]] void substitute_columns_avx512(
    const linalg::CholeskyFactor& chol, const double* w, double* a,
    std::size_t m, std::size_t n, std::size_t j0, std::size_t j1,
    double* mean, double* var) {
  substitute_columns_in<f64x8>(chol, w, a, m, n, j0, j1, mean, var);
}

[[gnu::flatten]] void stream_columns_sse2(const lanes::PassState& p,
                                          std::size_t j0, std::size_t j1,
                                          double* acc, double* carry) {
  stream_columns_in<f64x2>(p, j0, j1, acc, carry);
}

[[gnu::target("avx2"), gnu::flatten]] void stream_columns_avx2(
    const lanes::PassState& p, std::size_t j0, std::size_t j1, double* acc,
    double* carry) {
  stream_columns_in<f64x4>(p, j0, j1, acc, carry);
}

[[gnu::target("avx512f"), gnu::flatten]] void stream_columns_avx512(
    const lanes::PassState& p, std::size_t j0, std::size_t j1, double* acc,
    double* carry) {
  stream_columns_in<f64x8>(p, j0, j1, acc, carry);
}

}  // namespace

void lanes::substitute_columns(Isa isa, const linalg::CholeskyFactor& chol,
                               const double* w, double* a, std::size_t m,
                               std::size_t n, std::size_t j0, std::size_t j1,
                               double* mean, double* var) {
  switch (isa) {
    case Isa::kAvx512:
      substitute_columns_avx512(chol, w, a, m, n, j0, j1, mean, var);
      return;
    case Isa::kAvx2:
      substitute_columns_avx2(chol, w, a, m, n, j0, j1, mean, var);
      return;
    case Isa::kSse2:
      break;
  }
  substitute_columns_sse2(chol, w, a, m, n, j0, j1, mean, var);
}

void lanes::stream_columns(Isa isa, const PassState& p, std::size_t j0,
                           std::size_t j1, double* acc, double* carry) {
  switch (isa) {
    case Isa::kAvx512:
      stream_columns_avx512(p, j0, j1, acc, carry);
      return;
    case Isa::kAvx2:
      stream_columns_avx2(p, j0, j1, acc, carry);
      return;
    case Isa::kSse2:
      break;
  }
  stream_columns_sse2(p, j0, j1, acc, carry);
}

double Prediction::stddev() const {
  return std::sqrt(std::max(0.0, variance));
}

GpRegressor::GpRegressor(std::unique_ptr<Kernel> kernel, double noise_variance)
    : kernel_(std::move(kernel)), noise_var_(noise_variance) {
  if (!kernel_) throw std::invalid_argument("GpRegressor: null kernel");
  if (!(noise_var_ > 0.0))
    throw std::invalid_argument("GpRegressor: noise variance must be > 0");
}

GpRegressor::GpRegressor(const GpRegressor& other)
    : kernel_(other.kernel_->clone()),
      noise_var_(other.noise_var_),
      z_(other.z_),
      zdata_(other.zdata_),
      y_(other.y_),
      chol_(other.chol_),
      w_(other.w_),
      cands_(other.cands_),
      amat_(other.amat_),
      tracked_mean_(other.tracked_mean_),
      tracked_var_(other.tracked_var_),
      pending_(other.pending_),
      pool_(other.pool_) {}

GpRegressor& GpRegressor::operator=(const GpRegressor& other) {
  if (this == &other) return *this;
  GpRegressor tmp(other);
  *this = std::move(tmp);
  return *this;
}

void GpRegressor::set_thread_pool(std::shared_ptr<common::ThreadPool> pool) {
  pool_ = std::move(pool);
}

void GpRegressor::over_columns(
    const std::function<void(std::size_t, std::size_t)>& fn) const {
  const std::size_t m = num_tracked();
  if (m == 0) return;
  if (pool_) {
    // sync: blocks write disjoint column ranges [j0, j1) of the tracked
    // A-cache / mean / var rows; parallel_for joins before returning, so the
    // caller reads only after every block retired.
    pool_->parallel_for(m, kColumnGrain, fn);
  } else {
    // Same block width serially: a block's cache rows stay L1/L2-resident
    // across the row sweep (the unblocked sweep would stream the full
    // n x m cache through memory once per training row).
    for (std::size_t j0 = 0; j0 < m; j0 += kColumnGrain) {
      fn(j0, std::min(m, j0 + kColumnGrain));
    }
  }
}

void GpRegressor::reserve_cache_rows(std::size_t rows) const {
  const std::size_t needed = rows * num_tracked();
  if (needed > amat_.capacity()) {
    amat_.reserve(std::max(needed, 2 * amat_.capacity()));
  }
}

void GpRegressor::add(const Vector& z, double y) {
  if (z.size() != kernel_->dims())
    throw std::invalid_argument("GpRegressor::add: input dimension mismatch");
  apply_pending_pass();  // one pass pending at a time: this row's is next
  const std::size_t n = y_.size();

  scratch_k_.resize(n);
  kernel_->eval_batch(zdata_.data(), n, z, scratch_k_.data());
  const double kzz = (*kernel_)(z, z) + noise_var_;

  chol_.extend(scratch_k_, kzz);
  const double* lrow = chol_.row_data(n);
  const double pivot = chol_.diag(n);

  // Extend w = L^{-1} y by forward substitution on the new row.
  double s = y;
  for (std::size_t i = 0; i < n; ++i) s -= lrow[i] * w_[i];
  w_.push_back(s / pivot);

  // The new row of A = L^{-1} K_tc and its fold into the cached moments wait
  // for the next cache pass.
  if (num_tracked() > 0) {
    pending_.rows = n;
    pending_.fold = true;
    pending_.lrow.assign(lrow, lrow + n);
    pending_.z = z;
    pending_.pivot = pivot;
    pending_.w_new = w_.back();
  }

  z_.push_back(z);
  zdata_.insert(zdata_.end(), z.begin(), z.end());
  y_.push_back(y);
}

std::size_t GpRegressor::eviction_candidate(EvictionPolicy policy) const {
  const std::size_t n = y_.size();
  if (n == 0)
    throw std::logic_error("GpRegressor::eviction_candidate: no observations");
  if (policy == EvictionPolicy::kOldest) return 0;

  // kMinLeverage: score_i = alpha_i^2 / P_ii, the squared perturbation the
  // posterior mean suffers when observation i is deleted. alpha is one
  // O(n^2) solve; P_ii = ||L^{-1} e_i||^2 comes from a trailing forward
  // substitution per i (O(n^3)/6 total — flat, since n <= B). Everything is
  // serial, so the choice never depends on the thread count.
  const Vector alpha = chol_.solve(y_);
  Vector x(n, 0.0);
  std::size_t best = 0;
  double best_score = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = 1.0 / chol_.diag(i);
    double p_ii = x[i] * x[i];
    for (std::size_t k = i + 1; k < n; ++k) {
      const double* rk = chol_.row_data(k);
      double s = 0.0;
      for (std::size_t j = i; j < k; ++j) s -= rk[j] * x[j];
      x[k] = s / rk[k];
      p_ii += x[k] * x[k];
    }
    const double score = alpha[i] * alpha[i] / p_ii;
    if (score < best_score) {
      best_score = score;
      best = i;
    }
  }
  return best;
}

void GpRegressor::remove_observation(std::size_t i) {
  const std::size_t n = y_.size();
  if (i >= n)
    throw std::invalid_argument(
        "GpRegressor::remove_observation: index out of range");
  const std::size_t d = kernel_->dims();
  // One eviction pending at a time; a pending fold alone joins this one.
  if (pending_.evict) run_pending_pass();

  std::vector<linalg::GivensRotation>& rot = pending_.rotations;
  chol_.remove_row(i, rot);

  // The rotations that re-triangularized L also keep w = L^{-1} y
  // consistent: mix the same coordinate pairs, then drop the last entry
  // (the component of the removed observation).
  for (std::size_t r = 0; r < rot.size(); ++r) {
    const double c = rot[r].c;
    const double s = rot[r].s;
    const double a = w_[i + r];
    const double b = w_[i + r + 1];
    w_[i + r] = c * a + s * b;
    w_[i + r + 1] = c * b - s * a;
  }
  const double w_last = w_.back();
  w_.pop_back();

  // Same treatment for the cache A = L^{-1} K(train, cands), in the pending
  // pass with the fold (if any).
  if (num_tracked() > 0) {
    if (!pending_.fold) pending_.rows = n;
    pending_.evict = true;
    pending_.victim = i;
    pending_.w_last = w_last;
  }

  z_.erase(z_.begin() + static_cast<std::ptrdiff_t>(i));
  zdata_.erase(zdata_.begin() + static_cast<std::ptrdiff_t>(i * d),
               zdata_.begin() + static_cast<std::ptrdiff_t>((i + 1) * d));
  y_.erase(y_.begin() + static_cast<std::ptrdiff_t>(i));
}

void GpRegressor::run_pending_pass() const {
  const CachePass& p = pending_;
  const std::size_t m = num_tracked();
  const std::size_t rows = p.rows + (p.fold ? 1 : 0) - (p.evict ? 1 : 0);
  if (rows > p.rows) {
    reserve_cache_rows(rows);
    amat_.resize(rows * m);  // a fold alone stores the new row
  }
  const lanes::PassState state{
      .a = amat_.data(),
      .m = m,
      .rows = p.rows,
      .fold = p.fold,
      .lrow = p.lrow.data(),
      .pivot = p.pivot,
      .w_new = p.w_new,
      .evict = p.evict,
      .victim = p.victim,
      .rotations = p.rotations.data(),
      .w_last = p.w_last,
      .mean = tracked_mean_.data(),
      .var = tracked_var_.data(),
  };
  over_columns([&](std::size_t j0, std::size_t j1) {
    // Block-local rows, column j at [j - j0]: the new row's accumulator,
    // seeded with its kernel values (it is never written into the cache
    // when an eviction follows), and the rotated row carried down to the
    // next rotation.
    double acc[kColumnGrain];
    double carry[kColumnGrain];
    if (p.fold) kernel_->eval_columns(*cands_, j0, j1, p.z, acc);
    lanes::stream_columns(lanes::host_isa(), state, j0, j1, acc, carry);
  });
  amat_.resize(rows * m);
  pending_.fold = false;
  pending_.evict = false;
}

Prediction GpRegressor::predict(const Vector& z) const {
  if (z.size() != kernel_->dims())
    throw std::invalid_argument(
        "GpRegressor::predict: input dimension mismatch");
  const std::size_t n = y_.size();
  const double prior = (*kernel_)(z, z);
  if (n == 0) return Prediction{0.0, prior};

  scratch_k_.resize(n);
  kernel_->eval_batch(zdata_.data(), n, z, scratch_k_.data());
  chol_.solve_lower_into(scratch_k_, scratch_v_);
  const double mean = linalg::dot(scratch_v_, w_);
  const double var =
      std::max(0.0, prior - linalg::dot(scratch_v_, scratch_v_));
  return Prediction{mean, var};
}

double GpRegressor::log_marginal_likelihood() const {
  const auto n = static_cast<double>(y_.size());
  if (y_.empty()) return 0.0;
  return -0.5 * linalg::dot(w_, w_) - 0.5 * chol_.log_det() -
         0.5 * n * std::log(2.0 * std::numbers::pi);
}

void GpRegressor::track_candidates(const std::vector<Vector>& candidates) {
  // from_points rejects a candidate of another width than the kernel's.
  track_candidates(std::make_shared<const linalg::FeatureMajorPoints>(
      linalg::FeatureMajorPoints::from_points(candidates, kernel_->dims())));
}

void GpRegressor::track_candidates(
    std::shared_ptr<const linalg::FeatureMajorPoints> candidates) {
  if (!candidates)
    throw std::invalid_argument("GpRegressor::track_candidates: null matrix");
  if (candidates->size() > 0 && candidates->dims() != kernel_->dims())
    throw std::invalid_argument(
        "GpRegressor::track_candidates: dimension mismatch");
  cands_ = std::move(candidates);
  rebuild_tracked_cache();
}

void GpRegressor::clear_tracked_candidates() {
  cands_.reset();
  pending_.fold = false;
  pending_.evict = false;
  amat_.clear();
  amat_.shrink_to_fit();
  tracked_mean_.clear();
  tracked_var_.clear();
}

double GpRegressor::tracked_variance(std::size_t j) const {
  apply_pending_pass();
  return std::max(0.0, tracked_var_[j]);
}

Prediction GpRegressor::tracked_prediction(std::size_t j) const {
  const double v = tracked_variance(j);  // applies a pending pass first
  return Prediction{tracked_mean_[j], v};
}

void GpRegressor::rebuild_tracked_cache() {
  const std::size_t m = num_tracked();
  const std::size_t n = y_.size();
  tracked_mean_.assign(m, 0.0);
  tracked_var_.assign(m, 0.0);
  // The rebuild reads the factor's every row: a pending pass is dropped.
  pending_.fold = false;
  pending_.evict = false;
  if (m == 0) {
    amat_.clear();
    return;
  }
  reserve_cache_rows(n);
  amat_.resize(n * m);
  over_columns([&](std::size_t j0, std::size_t j1) {
    rebuild_columns(j0, j1);
  });
}

void GpRegressor::rebuild_columns(std::size_t j0, std::size_t j1) {
  const std::size_t m = num_tracked();
  const std::size_t n = y_.size();
  double* a = amat_.data();
  double* mean = tracked_mean_.data();
  double* var = tracked_var_.data();

  const double prior = kernel_->prior_variance();
  for (std::size_t j = j0; j < j1; ++j) var[j] = prior;

  // Kernel rows straight into the A-cache, one eval_columns per training
  // row over the whole block (the same call, chunked from j0, that a fold
  // makes), then the forward substitution A = L^{-1} K in place at the
  // host's lane width.
  for (std::size_t i = 0; i < n; ++i) {
    kernel_->eval_columns(*cands_, j0, j1, z_[i], a + i * m + j0);
  }
  lanes::substitute_columns(lanes::host_isa(), chol_, w_.data(), a, m, n, j0,
                            j1, mean, var);
}

}  // namespace edgebol::gp
