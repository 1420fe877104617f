// The batched GP engine's two core guarantees:
//
//  1. The tracked-candidate cache is EXACT — after any interleaving of
//     add() and context switches (re-tracking), tracked_prediction(j)
//     matches a fresh predict() at the same point to 1e-9.
//
//  2. Parallelism never changes results — EdgeBol decision trajectories and
//     fit_hyperparameters outputs are bit-identical for any thread count
//     (the block partition depends only on the problem size, and each
//     column's floating-point op sequence is independent of the blocking).

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/edgebol.hpp"
#include "env/scenarios.hpp"
#include "gp/gp_regressor.hpp"
#include "gp/hyperopt.hpp"
#include "gp/kernel.hpp"

namespace edgebol {
namespace {

using linalg::Vector;

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

// ---------------------------------------------------------------------------
// Property: tracked cache == fresh predict, through adds and re-tracks.
// ---------------------------------------------------------------------------

void check_tracked_matches_fresh(const gp::GpRegressor& gp,
                                 const std::vector<Vector>& cands) {
  for (std::size_t j = 0; j < cands.size(); ++j) {
    const gp::Prediction fresh = gp.predict(cands[j]);
    EXPECT_NEAR(gp.tracked_mean(j), fresh.mean, 1e-9);
    EXPECT_NEAR(gp.tracked_variance(j), fresh.variance, 1e-9);
  }
}

void run_interleaved_property(std::shared_ptr<common::ThreadPool> pool) {
  Rng rng(1234);
  gp::GpRegressor gp(make_kernel(), 2e-3);
  gp.set_thread_pool(pool);

  // Phases of the interleave: grow, switch context (new candidate set),
  // grow again, switch back, grow once more. Checked after every phase.
  const auto cands_a = draw_points(60, rng);
  const auto cands_b = draw_points(45, rng);
  const auto mat_a = pack(cands_a);
  const auto mat_b = pack(cands_b);
  const auto zs = draw_points(36, rng);
  Rng yrng(77);
  std::size_t added = 0;
  auto grow = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i, ++added) {
      gp.add(zs[added], yrng.normal());
    }
  };

  grow(8);
  gp.track_candidates(mat_a);
  check_tracked_matches_fresh(gp, cands_a);

  grow(10);
  check_tracked_matches_fresh(gp, cands_a);

  gp.track_candidates(mat_b);  // context switch
  check_tracked_matches_fresh(gp, cands_b);

  grow(12);
  check_tracked_matches_fresh(gp, cands_b);

  gp.track_candidates(mat_a);  // switch back
  grow(6);
  check_tracked_matches_fresh(gp, cands_a);
}

TEST(GpParallel, TrackedMatchesFreshPredictSerial) {
  run_interleaved_property(nullptr);
}

TEST(GpParallel, TrackedMatchesFreshPredictPooled) {
  run_interleaved_property(std::make_shared<common::ThreadPool>(4));
}

// The cache itself must be bit-identical between the serial and pooled
// engines, not merely close: same partition, same per-column op sequence.
// 1,100 candidates span three column blocks (the last one ragged), so the
// pooled runs really split the work; 13 observations at the rebuild leave a
// ragged row tile, and the adds and evictions after it fold through every
// block.
TEST(GpParallel, TrackedCacheBitIdenticalAcrossPools) {
  std::vector<std::size_t> counts = {1, 2, 8};
  std::vector<std::vector<double>> means, vars;
  for (std::size_t threads : counts) {
    Rng rng(55);
    gp::GpRegressor gp(make_kernel(), 1e-3);
    if (threads > 1) {
      gp.set_thread_pool(std::make_shared<common::ThreadPool>(threads));
    }
    const auto cands = draw_points(1100, rng);
    const auto zs = draw_points(30, rng);
    Rng yrng(66);
    for (std::size_t i = 0; i < 13; ++i) gp.add(zs[i], yrng.normal());
    gp.track_candidates(pack(cands));
    for (std::size_t i = 13; i < 30; ++i) gp.add(zs[i], yrng.normal());
    gp.remove_observation(4);
    gp.remove_observation(0);
    const double* mean = gp.tracked_mean_data();
    const double* var = gp.tracked_var_data();
    means.emplace_back(mean, mean + cands.size());
    vars.emplace_back(var, var + cands.size());
  }
  EXPECT_EQ(means[0], means[1]);  // exact, not approximate
  EXPECT_EQ(means[0], means[2]);
  EXPECT_EQ(vars[0], vars[1]);
  EXPECT_EQ(vars[0], vars[2]);
}

// ---------------------------------------------------------------------------
// EdgeBol trajectories are bit-identical for any num_threads.
// ---------------------------------------------------------------------------

struct Trajectory {
  std::vector<std::size_t> picks;
  std::vector<std::size_t> safe_sizes;
  std::vector<double> kpis;

  bool operator==(const Trajectory&) const = default;
};

Trajectory run_trajectory(std::size_t num_threads) {
  env::GridSpec spec;
  spec.levels_per_dim = 4;  // 256 candidates keeps the test quick
  core::EdgeBolConfig cfg;
  cfg.num_threads = num_threads;
  core::EdgeBol agent(env::ControlGrid(spec), cfg);
  env::Testbed tb = env::make_static_testbed(35.0);

  // Alternate between two contexts so the run exercises both the per-period
  // fold and the context-switch rebuild paths.
  const env::Context ctx_a{2.0, 12.0, 3.0};
  const env::Context ctx_b{6.0, 9.0, 8.0};

  Trajectory tr;
  for (int t = 0; t < 30; ++t) {
    const env::Context& c = (t / 5) % 2 == 0 ? ctx_a : ctx_b;
    const core::Decision d = agent.select(c);
    const env::Measurement m = tb.step(d.policy);
    agent.update(c, d.policy_index, m);
    tr.picks.push_back(d.policy_index);
    tr.safe_sizes.push_back(d.safe_set_size);
    tr.kpis.push_back(m.delay_s);
    tr.kpis.push_back(m.map);
    tr.kpis.push_back(m.server_power_w);
    tr.kpis.push_back(m.bs_power_w);
  }
  return tr;
}

TEST(GpParallel, EdgeBolTrajectoryBitIdenticalAcrossThreadCounts) {
  const Trajectory t1 = run_trajectory(1);
  const Trajectory t2 = run_trajectory(2);
  const Trajectory t8 = run_trajectory(8);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t8);
}

// SafeOpt acquisition walks the precomputed CSR adjacency — same check.
TEST(GpParallel, SafeOptTrajectoryBitIdenticalAcrossThreadCounts) {
  auto run_safeopt = [](std::size_t num_threads) {
    env::GridSpec spec;
    spec.levels_per_dim = 4;
    core::EdgeBolConfig cfg;
    cfg.num_threads = num_threads;
    cfg.acquisition = core::AcquisitionKind::kSafeOpt;
    core::EdgeBol agent(env::ControlGrid(spec), cfg);
    env::Testbed tb = env::make_static_testbed(35.0);
    Trajectory tr;
    for (int t = 0; t < 20; ++t) {
      const env::Context c = tb.context();
      const core::Decision d = agent.select(c);
      const env::Measurement m = tb.step(d.policy);
      agent.update(c, d.policy_index, m);
      tr.picks.push_back(d.policy_index);
      tr.safe_sizes.push_back(d.safe_set_size);
      tr.kpis.push_back(m.delay_s);
    }
    return tr;
  };
  const Trajectory t1 = run_safeopt(1);
  const Trajectory t8 = run_safeopt(8);
  EXPECT_EQ(t1, t8);
}

// ---------------------------------------------------------------------------
// fit_hyperparameters is bit-identical with and without a pool.
// ---------------------------------------------------------------------------

TEST(GpParallel, FitHyperparametersBitIdenticalAcrossPools) {
  // n = 64 with 10 starts puts the random-probe batch (10 x 64^3) above
  // hyperopt's pooled-work cutoff, so the pooled branch runs.
  Rng data_rng(9);
  const auto zs = draw_points(64, data_rng);
  Vector ys(zs.size());
  Rng yrng(10);
  for (double& v : ys) v = yrng.normal();

  gp::HyperoptOptions opts;
  opts.num_random_starts = 10;
  opts.refine_rounds = 2;

  std::vector<gp::GpHyperparams> fits;
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    gp::HyperoptOptions o = opts;
    if (threads > 1) o.pool = std::make_shared<common::ThreadPool>(threads);
    Rng rng(4242);  // identical draw sequence for every run
    fits.push_back(gp::fit_hyperparameters(zs, ys, rng, o));
  }

  for (std::size_t i = 1; i < fits.size(); ++i) {
    EXPECT_EQ(fits[0].lengthscales, fits[i].lengthscales);
    EXPECT_EQ(fits[0].amplitude, fits[i].amplitude);
    EXPECT_EQ(fits[0].noise_variance, fits[i].noise_variance);
    EXPECT_EQ(fits[0].family, fits[i].family);
  }
}

}  // namespace
}  // namespace edgebol
