#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "common/stats.hpp"
#include "env/control_grid.hpp"
#include "env/scenarios.hpp"
#include "env/testbed.hpp"

namespace edgebol::env {
namespace {

TEST(ControlGrid, SizeIsLevelsToTheFourth) {
  EXPECT_EQ(ControlGrid{}.size(), 11u * 11u * 11u * 11u);
  GridSpec spec;
  spec.levels_per_dim = 5;
  EXPECT_EQ(ControlGrid{spec}.size(), 625u);
}

TEST(ControlGrid, PoliciesRespectRanges) {
  const ControlGrid grid;
  const GridSpec& s = grid.spec();
  for (std::size_t i = 0; i < grid.size(); i += 97) {
    const ControlPolicy& p = grid.policy(i);
    EXPECT_GE(p.resolution, s.resolution_min);
    EXPECT_LE(p.resolution, s.resolution_max);
    EXPECT_GE(p.airtime, s.airtime_min);
    EXPECT_LE(p.airtime, s.airtime_max);
    EXPECT_GE(p.gpu_speed, s.gpu_speed_min);
    EXPECT_LE(p.gpu_speed, s.gpu_speed_max);
    EXPECT_GE(p.mcs_cap, s.mcs_min);
    EXPECT_LE(p.mcs_cap, s.mcs_max);
  }
}

TEST(ControlGrid, MaxPerformanceCornerIsMaxEverything) {
  const ControlGrid grid;
  const ControlPolicy& p = grid.policy(grid.max_performance_index());
  EXPECT_DOUBLE_EQ(p.resolution, grid.spec().resolution_max);
  EXPECT_DOUBLE_EQ(p.airtime, grid.spec().airtime_max);
  EXPECT_DOUBLE_EQ(p.gpu_speed, grid.spec().gpu_speed_max);
  EXPECT_EQ(p.mcs_cap, grid.spec().mcs_max);
}

TEST(ControlGrid, NearestIndexRoundTrips) {
  const ControlGrid grid;
  for (std::size_t i = 0; i < grid.size(); i += 1234) {
    EXPECT_EQ(grid.nearest_index(grid.policy(i)), i);
  }
}

TEST(ControlGrid, CandidateFeaturesHaveJointDims) {
  const ControlGrid grid;
  Context c;
  const auto feats = grid.candidate_features(c);
  ASSERT_EQ(feats.size(), grid.size());
  EXPECT_EQ(feats.front().size(),
            Context::kFeatureDims + ControlPolicy::kFeatureDims);
}

TEST(ControlGrid, FeatureNormalizationInUnitBox) {
  const ControlGrid grid;
  Context c;
  c.n_users = 6;
  c.cqi_mean = 12.0;
  c.cqi_var = 4.0;
  for (const auto& f : grid.candidate_features(c)) {
    for (double v : f) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.05);
    }
  }
}

TEST(ControlGrid, NeighborsAreAxisAlignedSingleSteps) {
  GridSpec spec;
  spec.levels_per_dim = 5;
  const ControlGrid grid(spec);
  const auto offsets = grid.adjacency_offsets();
  const auto adjacency = grid.adjacency();
  ASSERT_EQ(offsets.size(), grid.size() + 1);
  const auto neighbors = [&](std::size_t i) {
    return adjacency.subspan(offsets[i], offsets[i + 1] - offsets[i]);
  };
  // Interior point: 8 neighbors; corner: 4.
  const std::size_t corner = 0;
  EXPECT_EQ(neighbors(corner).size(), 4u);
  const std::size_t interior = grid.nearest_index(ControlPolicy{
      0.625, 0.55, 0.5, 10});  // mid-grid levels in all dims
  const auto nbs = neighbors(interior);
  EXPECT_EQ(nbs.size(), 8u);
  const linalg::Vector center = grid.policy(interior).to_features();
  for (std::size_t nb : nbs) {
    const linalg::Vector f = grid.policy(nb).to_features();
    int changed = 0;
    for (std::size_t d = 0; d < f.size(); ++d) {
      changed += std::abs(f[d] - center[d]) > 1e-9;
    }
    EXPECT_EQ(changed, 1) << "neighbor differs in exactly one dimension";
  }
}

TEST(ControlGrid, InvalidSpecThrows) {
  GridSpec s;
  s.levels_per_dim = 1;
  EXPECT_THROW(ControlGrid{s}, std::invalid_argument);
  s = GridSpec{};
  s.airtime_min = 0.0;
  EXPECT_THROW(ControlGrid{s}, std::invalid_argument);
  s = GridSpec{};
  s.mcs_max = 99;
  EXPECT_THROW(ControlGrid{s}, std::invalid_argument);
}

TEST(Testbed, ContextReflectsUsersAndChannel) {
  Testbed tb = make_heterogeneous_testbed(3, 30.0, 0.2);
  const Context c = tb.context();
  EXPECT_DOUBLE_EQ(c.n_users, 3.0);
  EXPECT_GT(c.cqi_mean, 5.0);
  EXPECT_LE(c.cqi_mean, 15.0);
  EXPECT_GE(c.cqi_var, 0.0);
}

TEST(Testbed, ExpectedIsDeterministic) {
  Testbed tb = make_static_testbed(35.0);
  ControlPolicy p;
  const Measurement a = tb.expected(p);
  const Measurement b = tb.expected(p);
  EXPECT_DOUBLE_EQ(a.delay_s, b.delay_s);
  EXPECT_DOUBLE_EQ(a.server_power_w, b.server_power_w);
  EXPECT_DOUBLE_EQ(a.bs_power_w, b.bs_power_w);
  EXPECT_DOUBLE_EQ(a.map, b.map);
}

TEST(Testbed, StepsAreNoisyAroundExpectation) {
  TestbedConfig cfg;
  Testbed tb = make_static_testbed(35.0, cfg);
  ControlPolicy p;
  const Measurement exp = tb.expected(p);
  RunningStats delay, map, ps, pb;
  for (int i = 0; i < 300; ++i) {
    const Measurement m = tb.step(p);
    delay.add(m.delay_s);
    map.add(m.map);
    ps.add(m.server_power_w);
    pb.add(m.bs_power_w);
  }
  EXPECT_GT(delay.stddev(), 0.0);
  EXPECT_NEAR(delay.mean(), exp.delay_s, 0.15 * exp.delay_s);
  EXPECT_NEAR(ps.mean(), exp.server_power_w, 0.15 * exp.server_power_w);
  EXPECT_NEAR(pb.mean(), exp.bs_power_w, 0.1 * exp.bs_power_w);
  // min across one user's batches is slightly below the mean curve.
  EXPECT_NEAR(map.mean(), exp.map, 0.05);
}

TEST(Testbed, SameSeedReproducesTrajectories) {
  TestbedConfig cfg;
  cfg.seed = 99;
  Testbed a = make_static_testbed(30.0, cfg);
  Testbed b = make_static_testbed(30.0, cfg);
  ControlPolicy p;
  for (int i = 0; i < 10; ++i) {
    const Measurement ma = a.step(p);
    const Measurement mb = b.step(p);
    EXPECT_DOUBLE_EQ(ma.delay_s, mb.delay_s);
    EXPECT_DOUBLE_EQ(ma.map, mb.map);
  }
}

TEST(Testbed, InvalidPolicyOrConfigThrows) {
  Testbed tb = make_static_testbed(35.0);
  ControlPolicy p;
  p.resolution = 0.0;
  EXPECT_THROW(tb.step(p), std::invalid_argument);
  EXPECT_THROW(tb.set_bs_load_multiplier(0.5), std::invalid_argument);
  EXPECT_THROW(Testbed(TestbedConfig{}, {}), std::invalid_argument);
}

TEST(Scenarios, HeterogeneousSnrDecays20Percent) {
  Testbed tb = make_heterogeneous_testbed(4, 30.0, 0.2);
  EXPECT_EQ(tb.num_users(), 4u);
  // The worst user's channel is 30 * 0.8^3 = 15.36 dB; the testbed context
  // mixes all users, so just check the CQI spread is non-trivial.
  EXPECT_GT(tb.context().cqi_var, 0.0);
}

TEST(Scenarios, DynamicTestbedSweepsSnr) {
  TestbedConfig cfg;
  cfg.fading_sigma_db = 0.0;
  Testbed tb = make_dynamic_testbed(5.0, 38.0, 6, 2, cfg);
  ControlPolicy p;
  RunningStats snr;
  for (int i = 0; i < 40; ++i) snr.add(tb.step(p).mean_snr_db);
  EXPECT_NEAR(snr.max(), 38.0, 1e-9);
  EXPECT_NEAR(snr.min(), 5.0, 1e-9);
}

TEST(Scenarios, HighLoadConfigSetsMultiplier) {
  const TestbedConfig cfg = high_load_config(10.0);
  EXPECT_DOUBLE_EQ(cfg.bs_load_multiplier, 10.0);
}

TEST(Scenarios, InvalidArgsThrow) {
  EXPECT_THROW(make_heterogeneous_testbed(0), std::invalid_argument);
  EXPECT_THROW(make_heterogeneous_testbed(2, 30.0, 1.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace edgebol::env
