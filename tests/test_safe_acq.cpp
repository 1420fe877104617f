#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "core/acquisition.hpp"
#include "core/safe_set.hpp"
#include "gp/kernel.hpp"

namespace edgebol::core {
namespace {

using gp::Prediction;
using linalg::Vector;

TEST(SafeSet, ConfidentFeasiblePointsQualify) {
  // d_max = 0.4, map_min = 0.5, beta = 2.
  const std::vector<Prediction> delay{{0.30, 0.0001}, {0.30, 0.01},
                                      {0.50, 0.0001}};
  const std::vector<Prediction> map{{0.60, 0.0001}, {0.60, 0.0001},
                                    {0.60, 0.0001}};
  const auto safe = compute_safe_set(delay, map, 0.4, 0.5, 2.0, {});
  // #0 qualifies; #1's delay UCB = 0.3 + 2*0.1 = 0.5 > 0.4; #2 infeasible.
  EXPECT_EQ(safe, (std::vector<std::size_t>{0}));
}

TEST(SafeSet, MapLcbMustClearThreshold) {
  const std::vector<Prediction> delay{{0.2, 0.0001}, {0.2, 0.0001}};
  const std::vector<Prediction> map{{0.60, 0.01}, {0.52, 0.0001}};
  // #0: LCB = 0.6 - 2*0.1 = 0.4 < 0.5 -> out. #1: LCB ~ 0.52 -> in.
  EXPECT_EQ(compute_safe_set(delay, map, 0.4, 0.5, 2.0, {}),
            (std::vector<std::size_t>{1}));
}

TEST(SafeSet, S0AlwaysIncludedAndDeduplicated) {
  const std::vector<Prediction> delay{{9.0, 1.0}, {9.0, 1.0}};
  const std::vector<Prediction> map{{0.0, 1.0}, {0.0, 1.0}};
  const auto safe = compute_safe_set(delay, map, 0.4, 0.5, 2.0, {1, 1});
  EXPECT_EQ(safe, (std::vector<std::size_t>{1}));
}

TEST(SafeSet, AllUnsafeFallsBackToS0) {
  // Every candidate violates both constraints: the result is exactly the
  // sorted, de-duplicated S0 (§5, Practical Issues).
  const std::vector<Prediction> delay(4, Prediction{9.0, 0.0001});
  const std::vector<Prediction> map(4, Prediction{0.0, 0.0001});
  EXPECT_EQ(compute_safe_set(delay, map, 0.4, 0.5, 2.0, {3, 1, 3}),
            (std::vector<std::size_t>{1, 3}));
}

TEST(SafeSet, DuplicateUnsortedS0MergesWithQualified) {
  std::vector<Prediction> delay(5, Prediction{9.0, 0.0001});
  delay[2] = {0.1, 0.0001};
  const std::vector<Prediction> map(5, Prediction{0.9, 0.0001});
  EXPECT_EQ(compute_safe_set(delay, map, 0.4, 0.5, 2.0, {4, 0, 4, 0}),
            (std::vector<std::size_t>{0, 2, 4}));
}

TEST(SafeSet, ZeroBetaReducesToMeanChecks) {
  const std::vector<Prediction> delay{{0.39, 100.0}};
  const std::vector<Prediction> map{{0.51, 100.0}};
  EXPECT_EQ(compute_safe_set(delay, map, 0.4, 0.5, 0.0, {}).size(), 1u);
}

TEST(SafeSet, LargerBetaShrinksTheSet) {
  std::vector<Prediction> delay, map;
  for (int i = 0; i < 10; ++i) {
    delay.push_back({0.3, 0.001 * i * i});
    map.push_back({0.6, 0.0001});
  }
  const auto lenient = compute_safe_set(delay, map, 0.4, 0.5, 1.0, {});
  const auto strict = compute_safe_set(delay, map, 0.4, 0.5, 3.0, {});
  EXPECT_GE(lenient.size(), strict.size());
}

TEST(SafeSet, ResultIsSorted) {
  std::vector<Prediction> delay(5, Prediction{0.1, 0.0001});
  std::vector<Prediction> map(5, Prediction{0.9, 0.0001});
  const auto safe = compute_safe_set(delay, map, 0.4, 0.5, 2.0, {4, 0});
  for (std::size_t i = 1; i < safe.size(); ++i) {
    EXPECT_LT(safe[i - 1], safe[i]);
  }
}

TEST(SafeSet, Validation) {
  std::vector<Prediction> one(1), two(2);
  EXPECT_THROW(compute_safe_set(one, two, 0.4, 0.5, 2.0, {}),
               std::invalid_argument);
  EXPECT_THROW(compute_safe_set(one, one, 0.4, 0.5, -1.0, {}),
               std::invalid_argument);
  EXPECT_THROW(compute_safe_set(one, one, 0.4, 0.5, 2.0, {5}),
               std::invalid_argument);
}

TEST(Acquisition, PicksLowestLcbWithinSafeSet) {
  const std::vector<Prediction> cost{
      {1.0, 0.0}, {0.5, 0.0}, {0.9, 0.04}};  // LCB: 1.0, 0.5, 0.9-2*0.2=0.5
  // Only indices {0, 2} are safe; #2's LCB (0.5) beats #0's (1.0).
  EXPECT_EQ(lcb_argmin(cost, {0, 2}, 2.0), 2u);
  // With everything safe, #1 and #2 tie at 0.5; the first wins.
  EXPECT_EQ(lcb_argmin(cost, {0, 1, 2}, 2.0), 1u);
}

TEST(Acquisition, UncertaintyDrivesExploration) {
  // Same mean, higher variance -> preferred by the optimistic bound.
  const std::vector<Prediction> cost{{0.7, 0.0001}, {0.7, 0.09}};
  EXPECT_EQ(lcb_argmin(cost, {0, 1}, 2.0), 1u);
}

TEST(Acquisition, LcbValueFormula) {
  EXPECT_NEAR(lcb_value({0.5, 0.04}, 2.0), 0.5 - 2.0 * 0.2, 1e-12);
}

TEST(Acquisition, Validation) {
  const std::vector<Prediction> cost{{1.0, 0.0}};
  EXPECT_THROW(lcb_argmin(cost, {}, 2.0), std::invalid_argument);
  EXPECT_THROW(lcb_argmin(cost, {3}, 2.0), std::invalid_argument);
}

// ---- SafeOpt-style acquisition (§5 comparison) ----

struct SafeOptFixture {
  std::vector<Prediction> cost, delay, map;
  std::vector<std::size_t> safe;

  SafeOptFixture() {
    // 5 candidates in a line; 0-2 safe, 3-4 unsafe.
    cost = {{0.5, 0.0001}, {0.6, 0.0001}, {0.9, 0.0001}, {0.4, 0.25},
            {0.4, 0.25}};
    delay = {{0.2, 0.0001}, {0.2, 0.0001}, {0.2, 0.09}, {0.9, 0.25},
             {0.9, 0.25}};
    map = {{0.8, 0.0001}, {0.8, 0.0001}, {0.8, 0.0001}, {0.8, 0.25},
           {0.8, 0.25}};
    safe = {0, 1, 2};
  }

  core::SafeOptInputs inputs(double beta = 2.0) const {
    core::SafeOptInputs in;
    in.cost = &cost;
    in.delay = &delay;
    in.map = &map;
    in.safe_set = &safe;
    in.beta = beta;
    return in;
  }
};

// CSR adjacency of the fixture's line graph 0 - 1 - 2 - 3 - 4.
const std::vector<std::size_t> kLineOffsets{0, 1, 3, 5, 7, 8};
const std::vector<std::size_t> kLineAdjacency{1, 0, 2, 1, 3, 2, 4, 3};

std::size_t line_select(const core::SafeOptInputs& in) {
  return safeopt_select(in, kLineOffsets, kLineAdjacency);
}

TEST(SafeOpt, PicksWidestAmongMinimizersAndExpanders) {
  const SafeOptFixture fx;
  // Candidate 2 is an expander (neighbor 3 unsafe) with a wide delay bound;
  // candidates 0/1 are minimizers with tiny widths. SafeOpt prefers 2.
  EXPECT_EQ(line_select(fx.inputs()), 2u);
}

TEST(SafeOpt, WithoutExpandersFallsToWidestMinimizer) {
  SafeOptFixture fx;
  fx.safe = {0, 1};  // neither borders an unsafe point directly... (1 does)
  fx.delay[1] = {0.2, 0.0001};
  fx.cost[0] = {0.5, 0.0001};
  fx.cost[1] = {0.5, 0.01};  // wider minimizer
  EXPECT_EQ(line_select(fx.inputs()), 1u);
}

TEST(SafeOpt, Validation) {
  const SafeOptFixture fx;
  core::SafeOptInputs in = fx.inputs();
  in.cost = nullptr;
  EXPECT_THROW(line_select(in), std::invalid_argument);
  SafeOptFixture empty;
  empty.safe.clear();
  EXPECT_THROW(line_select(empty.inputs()), std::invalid_argument);
  const std::vector<std::size_t> short_offsets{0, 1, 3};
  EXPECT_THROW(safeopt_select(fx.inputs(), short_offsets, kLineAdjacency),
               std::invalid_argument);
}

// ---- FusedAcquisition: the safe-set sweep of the decision path ----

gp::GpRegressor make_tracked_gp(std::size_t m, unsigned seed,
                                int n_obs = 12) {
  gp::GpRegressor g(std::make_unique<gp::Matern32Kernel>(Vector(2, 1.0), 1.0),
                    1e-4);
  edgebol::Rng rng(seed);
  for (int i = 0; i < n_obs; ++i) {
    g.add(Vector{rng.uniform(), rng.uniform()}, rng.normal());
  }
  std::vector<Vector> cands;
  for (std::size_t j = 0; j < m; ++j) {
    cands.push_back(Vector{static_cast<double>(j) / static_cast<double>(m),
                           0.5});
  }
  g.track_candidates(cands);
  return g;
}

std::vector<Prediction> shifted_predictions(const gp::GpRegressor& g,
                                            double offset) {
  std::vector<Prediction> out(g.num_tracked());
  for (std::size_t j = 0; j < out.size(); ++j) {
    out[j] = g.tracked_prediction(j);
    out[j].mean += offset;
  }
  return out;
}

TEST(FusedAcquisition, SafeSetMatchesReferenceWithOffsetsBothWays) {
  // An upper bound and a lower bound, each on a GP with a nonzero prior-mean
  // offset, and thresholds inside the bound ranges so the set is mixed. The
  // decide's safe-set size must equal compute_safe_set's over the
  // offset-shifted predictions, and its pick the reference LCB argmin.
  const std::size_t m = 64;
  gp::GpRegressor upper_gp = make_tracked_gp(m, 3);
  gp::GpRegressor lower_gp = make_tracked_gp(m, 11);
  gp::GpRegressor cost_gp = make_tracked_gp(m, 17);
  const double beta = 1.7;
  const double up_off = 0.1;
  const double lo_off = -0.05;
  const std::vector<Prediction> up_post = shifted_predictions(upper_gp, up_off);
  const std::vector<Prediction> lo_post = shifted_predictions(lower_gp, lo_off);
  std::vector<double> ucb(m), lcb(m);
  for (std::size_t j = 0; j < m; ++j) {
    ucb[j] = up_post[j].mean + beta * up_post[j].stddev();
    lcb[j] = lo_post[j].mean - beta * lo_post[j].stddev();
  }
  std::nth_element(ucb.begin(), ucb.begin() + 2 * m / 3, ucb.end());
  std::nth_element(lcb.begin(), lcb.begin() + m / 3, lcb.end());
  const double up_thr = ucb[2 * m / 3];  // two thirds pass the upper bound
  const double lo_thr = lcb[m / 3];      // two thirds pass the lower bound

  const std::vector<std::size_t> s0{0};
  FusedAcquisition acq;
  acq.configure(m, s0);
  const std::vector<BoundSpec> specs{{&upper_gp, true, up_thr, up_off},
                                     {&lower_gp, false, lo_thr, lo_off}};
  const FusedDecision got =
      acq.decide(AcquisitionKind::kSafeLcb, specs, cost_gp, beta);

  const std::vector<std::size_t> qualified =
      compute_safe_set(up_post, lo_post, up_thr, lo_thr, beta, {});
  ASSERT_GT(qualified.size(), 0u);
  ASSERT_LT(qualified.size(), m);
  const std::vector<std::size_t> safe =
      compute_safe_set(up_post, lo_post, up_thr, lo_thr, beta, s0);
  EXPECT_EQ(got.safe_set_size, safe.size());
  EXPECT_FALSE(got.fell_back_to_s0);
  EXPECT_EQ(got.index, lcb_argmin(shifted_predictions(cost_gp, 0.0), safe,
                                  beta));
}

TEST(FusedAcquisition, Validation) {
  gp::GpRegressor g = make_tracked_gp(8, 5);
  FusedAcquisition acq;
  const std::vector<std::size_t> out_of_range{8};
  EXPECT_THROW(acq.configure(8, out_of_range), std::invalid_argument);
  acq.configure(8, std::vector<std::size_t>{0});
  const std::vector<BoundSpec> one{{&g, true, 0.0, 0.0}};
  const auto decide = [&](std::span<const BoundSpec> bounds, double beta) {
    return acq.decide(AcquisitionKind::kSafeLcb, bounds, g, beta);
  };
  EXPECT_NO_THROW(decide(one, 2.0));
  const std::vector<BoundSpec> null_gp{{nullptr, true, 0.0, 0.0}};
  EXPECT_THROW(decide(null_gp, 2.0), std::invalid_argument);
  gp::GpRegressor small = make_tracked_gp(6, 7);
  const std::vector<BoundSpec> wrong_m{{&small, true, 0.0, 0.0}};
  EXPECT_THROW(decide(wrong_m, 2.0), std::invalid_argument);
  EXPECT_THROW(acq.decide(AcquisitionKind::kSafeLcb, one, small, 2.0),
               std::invalid_argument);  // objective of the wrong size
  EXPECT_THROW(decide(one, -1.0), std::invalid_argument);
  EXPECT_THROW(decide(one, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(decide(one, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  const std::vector<BoundSpec> nine(9, BoundSpec{&g, true, 0.0, 0.0});
  EXPECT_THROW(decide(nine, 2.0), std::invalid_argument);
  const std::vector<BoundSpec> eight(8, BoundSpec{&g, true, 0.0, 0.0});
  EXPECT_NO_THROW(decide(eight, 2.0));
}

}  // namespace
}  // namespace edgebol::core
