// Observation-budget guarantees of the GP engine:
//
//  1. Eviction is EXACT — after any remove_observation (downdate, no
//     refactorization) the posterior over the tracked grid matches a fresh
//     regressor built from just the retained observations.
//  2. The budget is a hard bound — budgeted runs never hold more than B
//     observations, and kOldest retains exactly the newest B inputs.
//  3. Parallelism never changes results — budgeted tracked caches and
//     EdgeBol decision trajectories are bit-identical for thread counts
//     {1, 2, 8}, eviction downdates included.
//  4. Deferring the cache passes of add() and remove_observation() changes
//     no bit — whatever sequence of adds, removals, reads, re-tracks and
//     copies runs, the tracked moments equal those of an eager reference
//     cache that folds at add() and downdates in a separate sweep at
//     remove().
//
// The budget itself is a caller's loop (GenericSafeBol::enforce_budget):
// BudgetedGp below runs the same loop around a single regressor.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/edgebol.hpp"
#include "env/scenarios.hpp"
#include "gp/gp_regressor.hpp"
#include "gp/kernel.hpp"

namespace edgebol {
namespace {

using linalg::Vector;

volatile double g_sink = 0.0;  // keeps tracked reads from being dropped

std::unique_ptr<gp::Kernel> make_kernel() {
  return std::make_unique<gp::Matern32Kernel>(Vector(7, 1.1), 0.9);
}

std::vector<Vector> draw_points(std::size_t n, Rng& rng) {
  std::vector<Vector> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Vector z(7);
    for (double& v : z) v = rng.uniform();
    out.push_back(std::move(z));
  }
  return out;
}

std::shared_ptr<const linalg::FeatureMajorPoints> pack(
    const std::vector<Vector>& pts) {
  return std::make_shared<const linalg::FeatureMajorPoints>(
      linalg::FeatureMajorPoints::from_points(pts, 7));
}

// Fresh regressor conditioned on exactly gp's retained observations; its
// tracked posterior is the ground truth the downdated cache must match.
void expect_matches_fresh(const gp::GpRegressor& gp,
                          const std::vector<Vector>& cands, double tol) {
  gp::GpRegressor fresh(make_kernel(), gp.noise_variance());
  for (std::size_t i = 0; i < gp.num_observations(); ++i) {
    fresh.add(gp.inputs()[i], gp.targets()[i]);
  }
  fresh.track_candidates(pack(cands));
  for (std::size_t j = 0; j < cands.size(); ++j) {
    EXPECT_NEAR(gp.tracked_mean(j), fresh.tracked_mean(j), tol) << "j=" << j;
    EXPECT_NEAR(gp.tracked_variance(j), fresh.tracked_variance(j), tol)
        << "j=" << j;
  }
}

// A regressor under an observation budget: after every add, evict the
// policy's candidate until the budget holds, as the engine does.
struct BudgetedGp {
  gp::GpRegressor gp;
  std::size_t budget;
  gp::EvictionPolicy policy;
  std::size_t evictions = 0;

  BudgetedGp(double noise, std::size_t b, gp::EvictionPolicy p)
      : gp(make_kernel(), noise), budget(b), policy(p) {}

  void trim() {
    while (gp.num_observations() > budget) {
      gp.remove_observation(gp.eviction_candidate(policy));
      ++evictions;
    }
  }
  void add(const Vector& z, double y) {
    gp.add(z, y);
    trim();
  }
};

// ---------------------------------------------------------------------------
// remove_observation at the edges and the middle, tracked == fresh.
// ---------------------------------------------------------------------------

TEST(GpBudget, RemoveObservationMatchesFresh) {
  Rng rng(101);
  const auto cands = draw_points(40, rng);
  const auto zs = draw_points(14, rng);
  for (std::size_t victim : {std::size_t{0}, std::size_t{7}, std::size_t{13}}) {
    gp::GpRegressor gp(make_kernel(), 2e-3);
    Rng yrng(55);
    for (const Vector& z : zs) gp.add(z, yrng.normal());
    gp.track_candidates(pack(cands));
    gp.remove_observation(victim);
    ASSERT_EQ(gp.num_observations(), zs.size() - 1);
    expect_matches_fresh(gp, cands, 1e-8);
    // predict() shares the downdated factor with the tracked cache.
    const gp::Prediction p = gp.predict(cands[0]);
    EXPECT_NEAR(p.mean, gp.tracked_mean(0), 1e-9);
    EXPECT_NEAR(p.variance, gp.tracked_variance(0), 1e-9);
  }
}

TEST(GpBudget, RemoveObservationOutOfRangeThrows) {
  gp::GpRegressor gp(make_kernel(), 1e-3);
  EXPECT_THROW(gp.remove_observation(0), std::invalid_argument);
  Rng rng(3);
  const auto zs = draw_points(3, rng);
  for (const Vector& z : zs) gp.add(z, 0.5);
  EXPECT_THROW(gp.remove_observation(3), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Budget enforcement: hard bound, sliding-window retention, exactness for
// both policies under interleaved adds.
// ---------------------------------------------------------------------------

TEST(GpBudget, OldestPolicyKeepsSlidingWindow) {
  Rng rng(202);
  const std::size_t budget = 9;
  const auto zs = draw_points(25, rng);
  BudgetedGp b(2e-3, budget, gp::EvictionPolicy::kOldest);
  Rng yrng(77);
  for (std::size_t i = 0; i < zs.size(); ++i) {
    b.add(zs[i], yrng.normal());
    EXPECT_LE(b.gp.num_observations(), budget);
  }
  ASSERT_EQ(b.gp.num_observations(), budget);
  EXPECT_EQ(b.evictions, zs.size() - budget);
  // Exactly the newest `budget` inputs, in arrival order.
  for (std::size_t i = 0; i < budget; ++i) {
    EXPECT_EQ(b.gp.inputs()[i], zs[zs.size() - budget + i]);
  }
}

TEST(GpBudget, SetBudgetTrimsImmediately) {
  Rng rng(203);
  const auto cands = draw_points(25, rng);
  const auto zs = draw_points(12, rng);
  BudgetedGp b(2e-3, 0, gp::EvictionPolicy::kMinLeverage);
  Rng yrng(5);
  for (const Vector& z : zs) b.gp.add(z, yrng.normal());
  b.gp.track_candidates(pack(cands));
  b.budget = 7;
  b.trim();
  EXPECT_EQ(b.gp.num_observations(), 7u);
  EXPECT_EQ(b.evictions, 5u);
  expect_matches_fresh(b.gp, cands, 1e-8);
}

void run_budgeted_property(gp::EvictionPolicy policy,
                           std::shared_ptr<common::ThreadPool> pool) {
  Rng rng(404);
  const auto cands = draw_points(50, rng);
  const auto zs = draw_points(30, rng);
  BudgetedGp b(2e-3, 11, policy);
  b.gp.set_thread_pool(pool);
  b.gp.track_candidates(pack(cands));
  Rng yrng(88);
  for (std::size_t i = 0; i < zs.size(); ++i) {
    b.add(zs[i], yrng.normal());
    EXPECT_LE(b.gp.num_observations(), 11u);
  }
  expect_matches_fresh(b.gp, cands, 1e-8);
}

TEST(GpBudget, BudgetedPosteriorMatchesFreshOldest) {
  run_budgeted_property(gp::EvictionPolicy::kOldest, nullptr);
}

TEST(GpBudget, BudgetedPosteriorMatchesFreshMinLeverage) {
  run_budgeted_property(gp::EvictionPolicy::kMinLeverage, nullptr);
}

TEST(GpBudget, BudgetedPosteriorMatchesFreshPooled) {
  const auto pool = std::make_shared<common::ThreadPool>(4);
  run_budgeted_property(gp::EvictionPolicy::kOldest, pool);
  run_budgeted_property(gp::EvictionPolicy::kMinLeverage, pool);
}

// ---------------------------------------------------------------------------
// Bit-identity across thread counts {1, 2, 8}, downdates included.
// ---------------------------------------------------------------------------

TEST(GpBudget, BudgetedCacheBitIdenticalAcrossPools) {
  for (const gp::EvictionPolicy policy :
       {gp::EvictionPolicy::kOldest, gp::EvictionPolicy::kMinLeverage}) {
    std::vector<std::vector<double>> means, vars;
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      Rng rng(909);
      BudgetedGp b(1e-3, 10, policy);
      if (threads > 1) {
        b.gp.set_thread_pool(std::make_shared<common::ThreadPool>(threads));
      }
      const auto cands = draw_points(70, rng);
      const auto zs = draw_points(26, rng);
      b.gp.track_candidates(pack(cands));
      Rng yrng(66);
      for (const Vector& z : zs) b.add(z, yrng.normal());
      std::vector<double> m(cands.size()), v(cands.size());
      for (std::size_t j = 0; j < cands.size(); ++j) {
        m[j] = b.gp.tracked_mean(j);
        v[j] = b.gp.tracked_variance(j);
      }
      means.push_back(std::move(m));
      vars.push_back(std::move(v));
    }
    EXPECT_EQ(means[0], means[1]);  // exact, not approximate
    EXPECT_EQ(means[0], means[2]);
    EXPECT_EQ(vars[0], vars[1]);
    EXPECT_EQ(vars[0], vars[2]);
  }
}

struct Trajectory {
  std::vector<std::size_t> picks;
  std::vector<std::size_t> safe_sizes;
  std::vector<std::size_t> obs_counts;
  std::vector<double> kpis;

  bool operator==(const Trajectory&) const = default;
};

// EdgeBol on a levels^4 grid under a budget, the context stepping between
// two values every 5 periods: 4 selects in 5 run the last update's pending
// cache passes, and each step's rebuild drops them.
Trajectory run_budgeted_trajectory(std::size_t num_threads,
                                   gp::EvictionPolicy policy,
                                   std::size_t levels = 4,
                                   std::size_t budget = 12,
                                   int periods = 30) {
  env::GridSpec spec;
  spec.levels_per_dim = levels;
  core::EdgeBolConfig cfg;
  cfg.num_threads = num_threads;
  cfg.gp_budget = budget;
  cfg.gp_eviction = policy;
  core::EdgeBol agent(env::ControlGrid(spec), cfg);
  env::Testbed tb = env::make_static_testbed(35.0);

  const env::Context ctx_a{2.0, 12.0, 3.0};
  const env::Context ctx_b{6.0, 9.0, 8.0};

  Trajectory tr;
  for (int t = 0; t < periods; ++t) {
    const env::Context& c = (t / 5) % 2 == 0 ? ctx_a : ctx_b;
    const core::Decision d = agent.select(c);
    const env::Measurement m = tb.step(d.policy);
    agent.update(c, d.policy_index, m);
    EXPECT_LE(agent.num_observations(), cfg.gp_budget);
    tr.picks.push_back(d.policy_index);
    tr.safe_sizes.push_back(d.safe_set_size);
    tr.obs_counts.push_back(agent.num_observations());
    tr.kpis.push_back(m.delay_s);
    tr.kpis.push_back(m.map);
    tr.kpis.push_back(m.server_power_w);
    tr.kpis.push_back(m.bs_power_w);
  }
  return tr;
}

TEST(GpBudget, EdgeBolBudgetedTrajectoryBitIdenticalAcrossThreadCounts) {
  for (const gp::EvictionPolicy policy :
       {gp::EvictionPolicy::kOldest, gp::EvictionPolicy::kMinLeverage}) {
    const Trajectory t1 = run_budgeted_trajectory(1, policy);
    const Trajectory t2 = run_budgeted_trajectory(2, policy);
    const Trajectory t8 = run_budgeted_trajectory(8, policy);
    EXPECT_EQ(t1, t2);
    EXPECT_EQ(t1, t8);
  }
}

// The pending passes that select() runs concurrently (the surrogates on a
// pool, each block-parallel on the same pool) decide exactly what the
// serial engine decides. 6^4 = 1296 candidates span three column blocks.
TEST(GpBudget, EdgeBolPendingPassesBitIdenticalAcrossThreadCounts) {
  const Trajectory t1 =
      run_budgeted_trajectory(1, gp::EvictionPolicy::kOldest, 6, 30, 70);
  const Trajectory t2 =
      run_budgeted_trajectory(2, gp::EvictionPolicy::kOldest, 6, 30, 70);
  const Trajectory t3 =
      run_budgeted_trajectory(3, gp::EvictionPolicy::kOldest, 6, 30, 70);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t3);
}

// ---------------------------------------------------------------------------
// The deferred cache passes against an eager reference, bit for bit.
// ---------------------------------------------------------------------------

// The tracked cache kept eagerly: add() folds the new row into the cache at
// once, and remove() rotates the cache and folds the last row out in a
// second sweep — the loops of the engine before its fold was deferred, over
// the same 512-column blocks (eval_columns' chunks, and so its values, depend
// on them). Only the public kernel and CholeskyFactor are shared with
// GpRegressor.
class EagerCache {
 public:
  EagerCache(double noise,
             std::shared_ptr<const linalg::FeatureMajorPoints> cands)
      : kernel_(make_kernel()), noise_(noise), cands_(std::move(cands)) {}

  std::size_t rows() const { return w_.size(); }

  void add(const Vector& z, double y) {
    const std::size_t n = rows();
    Vector k(n);
    kernel_->eval_batch(zdata_.data(), n, z, k.data());
    chol_.extend(k, (*kernel_)(z, z) + noise_);
    const double* lrow = chol_.row_data(n);
    const double pivot = chol_.diag(n);
    double s = y;
    for (std::size_t i = 0; i < n; ++i) s -= lrow[i] * w_[i];
    const double w_new = s / pivot;
    w_.push_back(w_new);
    if (tracking_) {
      amat_.resize((n + 1) * m());
      for_blocks([&](std::size_t j0, std::size_t j1) {
        fold_new_row(z, lrow, pivot, w_new, n, j0, j1);
      });
    }
    zdata_.insert(zdata_.end(), z.begin(), z.end());
    zs_.push_back(z);
  }

  void remove(std::size_t i) {
    const std::size_t n = rows();
    std::vector<linalg::GivensRotation> rot;
    chol_.remove_row(i, rot);
    for (std::size_t r = 0; r < rot.size(); ++r) {
      const double a = w_[i + r];
      const double b = w_[i + r + 1];
      w_[i + r] = rot[r].c * a + rot[r].s * b;
      w_[i + r + 1] = rot[r].c * b - rot[r].s * a;
    }
    const double w_last = w_.back();
    w_.pop_back();
    if (tracking_) {
      for_blocks([&](std::size_t j0, std::size_t j1) {
        rotate_and_fold_out(rot, i, n, w_last, j0, j1);
      });
      amat_.resize((n - 1) * m());
    }
    zdata_.erase(zdata_.begin() + static_cast<std::ptrdiff_t>(i * 7),
                 zdata_.begin() + static_cast<std::ptrdiff_t>((i + 1) * 7));
    zs_.erase(zs_.begin() + static_cast<std::ptrdiff_t>(i));
  }

  // Row-at-a-time forward substitution A = L^{-1} K: per element the
  // subtractions in ascending k, the division, then the moment folds in
  // ascending i.
  void track() {
    tracking_ = true;
    const std::size_t n = rows();
    const std::size_t mm = m();
    mean.assign(mm, 0.0);
    var.assign(mm, kernel_->prior_variance());
    amat_.assign(n * mm, 0.0);
    for_blocks([&](std::size_t j0, std::size_t j1) {
      for (std::size_t i = 0; i < n; ++i) {
        double* ai = amat_.data() + i * mm;
        kernel_->eval_columns(*cands_, j0, j1, zs_[i], ai + j0);
        const double* li = chol_.row_data(i);
        for (std::size_t k = 0; k < i; ++k) {
          const double* ak = amat_.data() + k * mm;
          for (std::size_t j = j0; j < j1; ++j) ai[j] -= li[k] * ak[j];
        }
        for (std::size_t j = j0; j < j1; ++j) {
          ai[j] /= li[i];
          mean[j] += ai[j] * w_[i];
          var[j] -= ai[j] * ai[j];
        }
      }
    });
  }

  std::vector<double> mean, var;

 private:
  std::size_t m() const { return cands_->size(); }

  template <class Fn>
  void for_blocks(const Fn& fn) {
    for (std::size_t j0 = 0; j0 < m(); j0 += 512) {
      fn(j0, std::min(m(), j0 + 512));
    }
  }

  void fold_new_row(const Vector& z, const double* lrow, double pivot,
                    double w_new, std::size_t n, std::size_t j0,
                    std::size_t j1) {
    const std::size_t mm = m();
    double* arow = amat_.data() + n * mm;
    kernel_->eval_columns(*cands_, j0, j1, z, arow + j0);
    for (std::size_t i = 0; i < n; ++i) {
      const double* ai = amat_.data() + i * mm;
      for (std::size_t j = j0; j < j1; ++j) arow[j] -= lrow[i] * ai[j];
    }
    for (std::size_t j = j0; j < j1; ++j) {
      const double aj = arow[j] / pivot;
      arow[j] = aj;
      mean[j] += aj * w_new;
      var[j] -= aj * aj;
    }
  }

  void rotate_and_fold_out(const std::vector<linalg::GivensRotation>& rot,
                           std::size_t first, std::size_t n, double w_last,
                           std::size_t j0, std::size_t j1) {
    const std::size_t mm = m();
    for (std::size_t r = 0; r < rot.size(); ++r) {
      double* ak = amat_.data() + (first + r) * mm;
      double* ak1 = ak + mm;
      for (std::size_t j = j0; j < j1; ++j) {
        const double a = ak[j];
        const double b = ak1[j];
        ak[j] = rot[r].c * a + rot[r].s * b;
        ak1[j] = rot[r].c * b - rot[r].s * a;
      }
    }
    const double* last = amat_.data() + (n - 1) * mm;
    for (std::size_t j = j0; j < j1; ++j) {
      mean[j] -= last[j] * w_last;
      var[j] += last[j] * last[j];
    }
  }

  std::unique_ptr<gp::Kernel> kernel_;
  double noise_;
  std::shared_ptr<const linalg::FeatureMajorPoints> cands_;
  bool tracking_ = false;
  linalg::CholeskyFactor chol_;
  Vector w_;
  std::vector<double> zdata_;
  std::vector<Vector> zs_;
  std::vector<double> amat_;
};

void expect_same_bits(const gp::GpRegressor& gp, const EagerCache& ref,
                      const std::string& where) {
  const std::size_t m = gp.num_tracked();
  ASSERT_EQ(ref.mean.size(), m) << where;
  const std::size_t bytes = m * sizeof(double);
  EXPECT_EQ(std::memcmp(gp.tracked_mean_data(), ref.mean.data(), bytes), 0)
      << "mean, " << where;
  EXPECT_EQ(std::memcmp(gp.tracked_var_data(), ref.var.data(), bytes), 0)
      << "variance, " << where;
}

// Runs `script` on a GpRegressor and on the eager reference, comparing
// their bits after the ops marked * (a comparison reads the cache, so it
// runs any pending pass on its own; the other ops leave theirs pending).
//   a  add a fresh observation        R* tracked read (runs the pass)
//   0* remove the oldest              t* track_candidates (drops the pass)
//   h* remove the middle              c  replace by a copy of itself
//   l* remove the last (newest)       k  compare a copy (the original
//   <  remove the oldest                 keeps its pending pass)
//   |  remove the middle              x* apply_pending_pass
//   >  remove the last (newest)
void run_script(std::size_t m, std::size_t threads, std::size_t initial,
                const std::string& script) {
  const std::string where0 = "m=" + std::to_string(m) +
                             " threads=" + std::to_string(threads) +
                             " T0=" + std::to_string(initial) + " '" +
                             script + "'";
  Rng rng(7000 + m + initial);
  const auto cands = pack(draw_points(m, rng));
  gp::GpRegressor gp(make_kernel(), 2e-3);
  if (threads > 1) {
    gp.set_thread_pool(std::make_shared<common::ThreadPool>(threads));
  }
  EagerCache ref(2e-3, cands);
  const auto add_both = [&] {
    Vector z(7);
    for (double& v : z) v = rng.uniform();
    const double y = rng.normal();
    gp.add(z, y);
    ref.add(z, y);
  };
  for (std::size_t i = 0; i < initial; ++i) add_both();
  gp.track_candidates(cands);
  ref.track();
  expect_same_bits(gp, ref, where0 + " after track");

  for (std::size_t s = 0; s < script.size(); ++s) {
    const std::string where = where0 + " step " + std::to_string(s);
    const std::size_t n = gp.num_observations();
    switch (script[s]) {
      case 'a':
        add_both();
        continue;
      case '0':
      case 'h':
      case 'l':
      case '<':
      case '|':
      case '>': {
        const char op = script[s];
        const std::size_t victim = op == '0' || op == '<'   ? 0
                                   : op == 'h' || op == '|' ? n / 2
                                                            : n - 1;
        gp.remove_observation(victim);
        ref.remove(victim);
        if (op == '<' || op == '|' || op == '>') continue;  // left pending
        break;
      }
      case 'R':
        g_sink = gp.tracked_mean(m - 1);
        break;
      case 't':
        gp.track_candidates(cands);
        ref.track();
        break;
      case 'c': {
        gp::GpRegressor copy(gp);
        gp = std::move(copy);
        continue;
      }
      case 'k': {
        const gp::GpRegressor copy(gp);
        expect_same_bits(copy, ref, where + " (copy)");
        continue;
      }
      case 'x':
        gp.apply_pending_pass();
        break;
      default:
        FAIL() << "bad script op " << script[s];
    }
    ASSERT_EQ(gp.num_observations(), ref.rows()) << where;
    expect_same_bits(gp, ref, where);
  }
  expect_same_bits(gp, ref, where0 + " at the end");
}

TEST(GpBudget, DeferredFoldBitIdenticalToEagerCache) {
  const std::vector<std::string> scripts = {
      "a0a0a0a0a0",  // full kOldest budget: every row rotated
      "ahahahahah",  // a victim in the middle
      "alalalalal",  // the row just added is the victim
      "aa00aahhaall",  // two adds in a row, then two removals
      "a00aa0hl",    // two removals in a row after a fused one
      "aR0aRhaRl",   // a tracked read between add and removal
      "at0athatl",   // a re-track while a fold is pending
      "ac0achacl",   // a copy while a fold is pending
      "ax0axhx",     // a caller's pass run while a fold is pending
      "aaaRaa0",     // unbounded growth: folds applied alone
      // An eviction left pending (fused with the fold, or alone), then:
      "a<Ra|Ra>R",   // a tracked read
      "a0<R0|R",     // (an eviction alone) a tracked read
      "a<ta|t0>t",   // a re-track, which drops the pass unrun
      "a<aRa|a>aR",  // an add, which runs the pass first
      "a<<Ra>|R",    // another eviction, which runs the first pass first
      "a<cRa|k0",    // a copy: the copy and the original run it apart
      "a<xa>x",      // a caller's pass run
      "a<a<a<a<",    // the steady state of a full budget, read at the end
  };
  // From an empty regressor: the pending fold meets a cache with no rows.
  const std::vector<std::string> from_empty = {"a0a0a0", "aal0", "aRlaxl",
                                               "a>a>R", "aa>|k"};
  for (const std::size_t m : {std::size_t{1}, std::size_t{7}, std::size_t{9},
                              std::size_t{17}, std::size_t{1100}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      for (const std::size_t initial : {std::size_t{3}, std::size_t{12}}) {
        for (const std::string& script : scripts) {
          run_script(m, threads, initial, script);
        }
      }
      for (const std::string& script : from_empty) {
        run_script(m, threads, 0, script);
      }
    }
  }
}

}  // namespace
}  // namespace edgebol
