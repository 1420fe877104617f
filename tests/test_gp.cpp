#include "gp/gp_regressor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace edgebol::gp {
namespace {

std::unique_ptr<Kernel> unit_matern(std::size_t dims, double ls = 1.0) {
  return std::make_unique<Matern32Kernel>(Vector(dims, ls), 1.0);
}

// A raw tracked array as a vector, so EXPECT_EQ compares every element
// exactly and prints the ones that differ.
std::vector<double> raw(const double* p, std::size_t m) {
  std::vector<double> out(m);
  std::copy_n(p, m, out.begin());
  return out;
}

TEST(GpRegressor, PriorPredictionIsZeroMeanFullVariance) {
  GpRegressor gp(unit_matern(2), 1e-4);
  const Prediction p = gp.predict({0.3, 0.7});
  EXPECT_DOUBLE_EQ(p.mean, 0.0);
  EXPECT_DOUBLE_EQ(p.variance, 1.0);
  EXPECT_DOUBLE_EQ(p.stddev(), 1.0);
}

TEST(GpRegressor, SinglePointPosteriorMatchesAnalyticFormula) {
  // With one observation (z0, y0): mu(z) = k(z,z0) y0 / (1 + noise),
  // var(z) = 1 - k(z,z0)^2 / (1 + noise).
  const double noise = 0.01;
  GpRegressor gp(unit_matern(1), noise);
  gp.add({0.0}, 2.0);
  const Matern32Kernel k({1.0}, 1.0);
  const double kz = k({0.5}, {0.0});
  const Prediction p = gp.predict({0.5});
  EXPECT_NEAR(p.mean, kz * 2.0 / (1.0 + noise), 1e-10);
  EXPECT_NEAR(p.variance, 1.0 - kz * kz / (1.0 + noise), 1e-10);
}

TEST(GpRegressor, NearInterpolationWithSmallNoise) {
  GpRegressor gp(unit_matern(1, 0.5), 1e-8);
  gp.add({0.0}, 1.0);
  gp.add({1.0}, -1.0);
  EXPECT_NEAR(gp.predict({0.0}).mean, 1.0, 1e-4);
  EXPECT_NEAR(gp.predict({1.0}).mean, -1.0, 1e-4);
  EXPECT_LT(gp.predict({0.0}).variance, 1e-4);
}

TEST(GpRegressor, VarianceShrinksNearDataAndRecoversFarAway) {
  GpRegressor gp(unit_matern(1), 1e-4);
  gp.add({0.0}, 0.5);
  EXPECT_LT(gp.predict({0.05}).variance, 0.05);
  EXPECT_GT(gp.predict({10.0}).variance, 0.99);
}

TEST(GpRegressor, HigherNoiseMeansLessConfidence) {
  GpRegressor lo(unit_matern(1), 1e-4);
  GpRegressor hi(unit_matern(1), 0.5);
  lo.add({0.0}, 1.0);
  hi.add({0.0}, 1.0);
  EXPECT_LT(lo.predict({0.0}).variance, hi.predict({0.0}).variance);
  EXPECT_LT(std::abs(hi.predict({0.0}).mean), 1.0);  // shrinkage toward prior
}

TEST(GpRegressor, RepeatedObservationsAverageOutNoise) {
  Rng rng(5);
  GpRegressor gp(unit_matern(1), 0.04);
  for (int i = 0; i < 60; ++i) gp.add({0.0}, 1.0 + rng.normal(0.0, 0.2));
  EXPECT_NEAR(gp.predict({0.0}).mean, 1.0, 0.1);
  EXPECT_LT(gp.predict({0.0}).variance, 0.01);
}

TEST(GpRegressor, LogMarginalLikelihoodMatchesDirectFormula) {
  GpRegressor gp(unit_matern(1), 0.1);
  gp.add({0.0}, 1.0);
  // n=1: lml = -0.5 y^2/(1+noise) - 0.5 log(1+noise) - 0.5 log(2 pi).
  const double expected = -0.5 * 1.0 / 1.1 - 0.5 * std::log(1.1) -
                          0.5 * std::log(2.0 * std::numbers::pi);
  EXPECT_NEAR(gp.log_marginal_likelihood(), expected, 1e-10);
}

TEST(GpRegressor, BetterFittingHyperparamsScoreHigherLml) {
  Rng rng(7);
  // Smooth function sampled on a grid; long length-scale should win.
  auto build = [&](double ls) {
    GpRegressor gp(unit_matern(1, ls), 1e-2);
    for (int i = 0; i <= 20; ++i) {
      const double x = i / 20.0;
      gp.add({x}, std::sin(2.0 * x));
    }
    return gp.log_marginal_likelihood();
  };
  EXPECT_GT(build(1.0), build(0.02));
}

TEST(GpRegressor, TrackedPredictionsMatchDirectPredict) {
  Rng rng(11);
  GpRegressor gp(unit_matern(2, 0.7), 1e-3);
  std::vector<Vector> cands;
  for (int i = 0; i < 25; ++i) cands.push_back({rng.uniform(), rng.uniform()});
  gp.track_candidates(cands);
  for (int i = 0; i < 15; ++i) {
    gp.add({rng.uniform(), rng.uniform()}, rng.normal());
  }
  for (std::size_t j = 0; j < cands.size(); ++j) {
    const Prediction direct = gp.predict(cands[j]);
    EXPECT_NEAR(gp.tracked_mean(j), direct.mean, 1e-8);
    EXPECT_NEAR(gp.tracked_variance(j), direct.variance, 1e-8);
  }
}

// A cache built by add() folds and one built by a single rebuild over the
// same observations run the same operation sequence per element (ascending
// subtractions, division, ascending moment folds), so they must agree bit
// for bit. The observation counts cover every ragged row tile of the
// rebuild and the candidate counts every ragged column tail, on one block
// and across three, serially and pooled.
TEST(GpRegressor, TrackingAfterDataMatchesTrackingBefore) {
  const std::vector<std::size_t> checkpoints = {1, 2, 3, 4, 5, 6, 7, 64, 515};
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    for (const std::size_t m : {1, 7, 9, 17, 1100}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " m=" + std::to_string(m));
      Rng rng(13);
      std::vector<Vector> cands(m, Vector(7));
      for (Vector& c : cands) {
        for (double& v : c) v = rng.uniform();
      }
      GpRegressor before(unit_matern(7, 0.8), 1e-3);
      GpRegressor after(unit_matern(7, 0.8), 1e-3);
      if (threads > 1) {
        const auto pool = std::make_shared<common::ThreadPool>(threads);
        before.set_thread_pool(pool);
        after.set_thread_pool(pool);
      }
      before.track_candidates(cands);
      std::size_t t = 0;
      for (const std::size_t target : checkpoints) {
        for (; t < target; ++t) {
          Vector z(7);
          for (double& v : z) v = rng.uniform();
          const double y = rng.normal();
          before.add(z, y);
          after.add(z, y);
        }
        SCOPED_TRACE("T=" + std::to_string(t));
        GpRegressor rebuilt = after;
        rebuilt.track_candidates(cands);
        EXPECT_EQ(raw(before.tracked_mean_data(), m),
                  raw(rebuilt.tracked_mean_data(), m));
        EXPECT_EQ(raw(before.tracked_var_data(), m),
                  raw(rebuilt.tracked_var_data(), m));
      }
    }
  }
}

TEST(GpRegressor, ClearTrackedCandidates) {
  GpRegressor gp(unit_matern(1), 1e-3);
  gp.track_candidates({{0.0}});
  EXPECT_TRUE(gp.has_tracked_candidates());
  gp.clear_tracked_candidates();
  EXPECT_FALSE(gp.has_tracked_candidates());
  EXPECT_EQ(gp.num_tracked(), 0u);
}

TEST(GpRegressor, CopyIsIndependent) {
  GpRegressor a(unit_matern(1), 1e-3);
  a.add({0.0}, 1.0);
  GpRegressor b = a;
  b.add({0.5}, -1.0);
  EXPECT_EQ(a.num_observations(), 1u);
  EXPECT_EQ(b.num_observations(), 2u);
  EXPECT_NEAR(a.predict({0.0}).mean, 1.0, 0.01);
}

TEST(GpRegressor, InputValidation) {
  EXPECT_THROW(GpRegressor(nullptr, 1e-3), std::invalid_argument);
  EXPECT_THROW(GpRegressor(unit_matern(1), 0.0), std::invalid_argument);
  GpRegressor gp(unit_matern(2), 1e-3);
  EXPECT_THROW(gp.add({1.0}, 0.0), std::invalid_argument);
  EXPECT_THROW(gp.predict({1.0}), std::invalid_argument);
  EXPECT_THROW(gp.track_candidates({{1.0}}), std::invalid_argument);
}

TEST(GpRegressor, ManyObservationsStayNumericallyStable) {
  Rng rng(17);
  GpRegressor gp(unit_matern(3, 0.4), 1e-2);
  for (int i = 0; i < 300; ++i) {
    gp.add({rng.uniform(), rng.uniform(), rng.uniform()}, rng.normal());
  }
  const Prediction p = gp.predict({0.5, 0.5, 0.5});
  EXPECT_TRUE(std::isfinite(p.mean));
  EXPECT_GE(p.variance, 0.0);
  EXPECT_LE(p.variance, 1.0 + 1e-9);
}

}  // namespace
}  // namespace edgebol::gp
