#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "baselines/ddpg.hpp"
#include "baselines/linucb.hpp"
#include "baselines/egreedy.hpp"
#include "baselines/oracle.hpp"
#include "baselines/random_search.hpp"
#include "common/stats.hpp"
#include "core/period_loop.hpp"
#include "env/scenarios.hpp"

namespace edgebol::baselines {
namespace {

env::ControlGrid small_grid() {
  env::GridSpec spec;
  spec.levels_per_dim = 5;
  return env::ControlGrid(spec);
}

TEST(Oracle, FindsFeasibleMinimum) {
  env::Testbed tb = env::make_static_testbed(35.0);
  const env::ControlGrid grid = small_grid();
  const core::CostWeights w{1.0, 8.0};
  const core::ConstraintSpec cs{0.4, 0.5};
  const OracleResult r = exhaustive_oracle(tb, grid, w, cs);
  ASSERT_TRUE(r.feasible);
  EXPECT_LE(r.expected.delay_s, cs.d_max_s);
  EXPECT_GE(r.expected.map, cs.map_min);

  // No feasible grid policy is cheaper.
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const env::Measurement m = tb.expected(grid.policy(i));
    if (m.delay_s <= cs.d_max_s && m.map >= cs.map_min) {
      EXPECT_GE(w.cost(m.server_power_w, m.bs_power_w), r.cost - 1e-9);
    }
  }
}

TEST(Oracle, LaxConstraintsAreCheaperThanStringent) {
  env::Testbed tb = env::make_static_testbed(35.0);
  const env::ControlGrid grid = small_grid();
  const core::CostWeights w{1.0, 8.0};
  const OracleResult lax = exhaustive_oracle(tb, grid, w, {0.5, 0.4});
  const OracleResult stringent = exhaustive_oracle(tb, grid, w, {0.32, 0.6});
  ASSERT_TRUE(lax.feasible);
  EXPECT_LE(lax.cost, stringent.cost);
}

TEST(Oracle, InfeasibleFallsBackToMaxPerformance) {
  env::Testbed tb = env::make_static_testbed(35.0);
  const env::ControlGrid grid = small_grid();
  const OracleResult r =
      exhaustive_oracle(tb, grid, {1.0, 1.0}, {0.01, 0.74});
  EXPECT_FALSE(r.feasible);
  EXPECT_EQ(r.policy_index, grid.max_performance_index());
}

TEST(Oracle, FeasibilityIsTheViolationRuleNegated) {
  // On the same testbed, the optimum is never counted as a violation and
  // the infeasible fallback always is.
  env::Testbed tb = env::make_static_testbed(35.0);
  const env::ControlGrid grid = small_grid();
  const core::CostWeights w{1.0, 8.0};
  for (const core::ConstraintSpec cs :
       {core::ConstraintSpec{0.4, 0.5}, core::ConstraintSpec{0.5, 0.4},
        core::ConstraintSpec{0.32, 0.6}}) {
    const OracleResult r = exhaustive_oracle(tb, grid, w, cs);
    ASSERT_TRUE(r.feasible);
    EXPECT_FALSE(core::violates(cs, r.expected));
    EXPECT_FALSE(core::violates(cs, tb.expected(r.policy)));
  }
  for (const core::ConstraintSpec cs :
       {core::ConstraintSpec{0.01, 0.74}, core::ConstraintSpec{0.4, 0.99},
        core::ConstraintSpec{0.05, 0.1}}) {
    const OracleResult r = exhaustive_oracle(tb, grid, w, cs);
    ASSERT_FALSE(r.feasible);
    EXPECT_TRUE(core::violates(cs, r.expected));
    EXPECT_TRUE(core::violates(cs, tb.expected(r.policy)));
  }
}

TEST(Ddpg, ActionsStayInPhysicalRanges) {
  const env::GridSpec spec;
  DdpgAgent agent(spec, {1.0, 8.0}, {0.4, 0.5}, {}, 7);
  env::Testbed tb = env::make_static_testbed(35.0);
  for (int t = 0; t < 30; ++t) {
    const env::ControlPolicy p = agent.select(tb.context());
    EXPECT_GE(p.resolution, spec.resolution_min);
    EXPECT_LE(p.resolution, spec.resolution_max);
    EXPECT_GE(p.airtime, spec.airtime_min);
    EXPECT_LE(p.airtime, spec.airtime_max);
    EXPECT_GE(p.gpu_speed, 0.0);
    EXPECT_LE(p.gpu_speed, 1.0);
    EXPECT_GE(p.mcs_cap, spec.mcs_min);
    EXPECT_LE(p.mcs_cap, spec.mcs_max);
    agent.update(tb.context(), p, tb.step(p));
  }
  EXPECT_EQ(agent.replay_size(), 30u);
}

TEST(Ddpg, ExplorationNoiseDecays) {
  DdpgAgent agent(env::GridSpec{}, {1.0, 1.0}, {0.4, 0.5}, {}, 7);
  env::Testbed tb = env::make_static_testbed(35.0);
  const double before = agent.exploration_stddev();
  for (int i = 0; i < 50; ++i) agent.select(tb.context());
  EXPECT_LT(agent.exploration_stddev(), before);
}

TEST(Ddpg, LearnsASyntheticQuadraticBandit) {
  // Cost is minimized at action (0.5, 0.5, 0.5, 0.5) in normalized space;
  // feed the critic directly through Measurement surrogates.
  DdpgConfig cfg;
  cfg.warmup_periods = 10;
  cfg.updates_per_period = 8;
  cfg.noise_stddev_init = 0.4;
  cfg.noise_decay = 0.995;
  cfg.cost_scale = 1.0;
  const env::GridSpec spec;
  DdpgAgent agent(spec, {1.0, 0.0}, {1e9, -1.0}, cfg, 11);

  env::Context ctx;  // fixed context
  auto cost_of = [&](const env::ControlPolicy& p) {
    auto sq = [](double v) { return v * v; };
    const double mid_res = (spec.resolution_min + spec.resolution_max) / 2;
    const double mid_air = (spec.airtime_min + spec.airtime_max) / 2;
    return sq(p.resolution - mid_res) + sq(p.airtime - mid_air) +
           sq(p.gpu_speed - 0.5) +
           sq(p.mcs_cap / 20.0 - 0.5);
  };
  RunningStats early, late;
  for (int t = 0; t < 600; ++t) {
    const env::ControlPolicy p = agent.select(ctx);
    env::Measurement m;
    m.server_power_w = cost_of(p);  // delta1 = 1, delta2 = 0
    m.bs_power_w = 0.0;
    m.delay_s = 0.0;  // always feasible
    m.map = 1.0;
    agent.update(ctx, p, m);
    if (t < 50) early.add(m.server_power_w);
    if (t >= 550) late.add(m.server_power_w);
  }
  EXPECT_LT(late.mean(), early.mean());
  EXPECT_LT(late.mean(), 0.06);
}

TEST(Ddpg, ConstraintChangeIsAccepted) {
  DdpgAgent agent(env::GridSpec{}, {1.0, 1.0}, {0.4, 0.5}, {}, 3);
  agent.set_constraints({0.3, 0.6});
  EXPECT_DOUBLE_EQ(agent.constraints().d_max_s, 0.3);
}

TEST(Ddpg, Validation) {
  DdpgConfig bad;
  bad.batch_size = 0;
  EXPECT_THROW(DdpgAgent(env::GridSpec{}, {1, 1}, {0.4, 0.5}, bad, 1),
               std::invalid_argument);
}

// The smallest control grid: 2 levels per dimension, 16 arms.
env::ControlGrid arm_grid() {
  env::GridSpec spec;
  spec.levels_per_dim = 2;
  return env::ControlGrid(spec);
}

TEST(EGreedy, ExploresThenExploits) {
  EGreedyConfig cfg;
  cfg.epsilon_decay = 0.9;
  cfg.epsilon_min = 0.0;
  cfg.cost_scale = 1.0;
  EGreedyAgent agent(arm_grid(), {1.0, 0.0}, {1e9, -1.0}, cfg, 5);
  const env::Context ctx;
  // Arm costs 0.9 / 0.1 / 0.5 (and 0.5 for every further arm), always
  // feasible.
  auto feed = [&](std::size_t arm) {
    env::Measurement m;
    m.server_power_w = arm == 1 ? 0.1 : (arm == 0 ? 0.9 : 0.5);
    m.map = 1.0;
    agent.update(ctx, arm, m);
  };
  for (int t = 0; t < 300; ++t) feed(agent.select(ctx));
  EXPECT_LT(agent.epsilon(), 0.01);
  int picks_best = 0;
  for (int t = 0; t < 50; ++t) picks_best += (agent.select(ctx) == 1u);
  EXPECT_GT(picks_best, 45);
  EXPECT_NEAR(agent.arm_estimate(1), 0.1, 1e-9);
  EXPECT_GT(agent.arm_pulls(1), 50u);
}

TEST(EGreedy, PenalizesViolations) {
  EGreedyConfig cfg;
  cfg.cost_scale = 1.0;
  EGreedyAgent agent(arm_grid(), {1.0, 0.0}, {0.4, 0.5}, cfg, 5);
  env::Measurement bad;
  bad.server_power_w = 0.01;  // cheap but...
  bad.delay_s = 10.0;         // ...violates the delay constraint
  bad.map = 1.0;
  agent.update(env::Context{}, 0, bad);
  EXPECT_DOUBLE_EQ(agent.arm_estimate(0), cfg.penalty_cost);
}

TEST(EGreedy, Validation) {
  EGreedyAgent agent(arm_grid(), {1, 1}, {0.4, 0.5}, {}, 1);
  const std::size_t past_last = agent.grid().size();
  EXPECT_THROW(agent.update(env::Context{}, past_last, {}),
               std::invalid_argument);
  EXPECT_THROW(agent.arm_estimate(past_last), std::invalid_argument);
}

env::ControlGrid tiny_grid() {
  env::GridSpec spec;
  spec.levels_per_dim = 4;
  return env::ControlGrid(spec);
}

TEST(LinUcb, LearnsALinearSurface) {
  // On a cost that *is* linear in the features, LinUCB converges to the
  // argmin quickly.
  const env::ControlGrid grid = tiny_grid();
  LinUcbConfig cfg;
  cfg.cost_scale = 1.0;
  LinUcbAgent agent(grid, {1.0, 0.0}, {1e9, -1.0}, cfg);
  env::Context ctx;
  Rng rng(3);
  auto linear_cost = [&](const env::ControlPolicy& p) {
    return 0.5 + 0.3 * p.resolution - 0.2 * p.airtime + 0.1 * p.gpu_speed;
  };
  std::size_t last = 0;
  for (int t = 0; t < 250; ++t) {
    last = agent.select(ctx);
    env::Measurement m;
    m.server_power_w = linear_cost(grid.policy(last)) +
                       rng.normal(0.0, 0.01);
    m.map = 1.0;
    agent.update(ctx, last, m);
  }
  // Optimum: min resolution, max airtime, min gpu_speed.
  const env::ControlPolicy& p = grid.policy(last);
  EXPECT_DOUBLE_EQ(p.resolution, grid.spec().resolution_min);
  EXPECT_DOUBLE_EQ(p.airtime, grid.spec().airtime_max);
  EXPECT_DOUBLE_EQ(p.gpu_speed, grid.spec().gpu_speed_min);
  EXPECT_EQ(agent.num_observations(), 250u);
}

TEST(LinUcb, PredictsTheFittedLine) {
  const env::ControlGrid grid = tiny_grid();
  LinUcbConfig cfg;
  cfg.cost_scale = 1.0;
  cfg.ridge_lambda = 1e-4;
  LinUcbAgent agent(grid, {1.0, 0.0}, {1e9, -1.0}, cfg);
  env::Context ctx;
  Rng rng(5);
  for (int t = 0; t < 400; ++t) {
    const std::size_t i = rng.uniform_index(grid.size());
    env::Measurement m;
    m.server_power_w = 0.2 + 0.5 * grid.policy(i).airtime;
    m.map = 1.0;
    agent.update(ctx, i, m);
  }
  env::ControlPolicy probe = grid.policy(0);
  probe.airtime = 0.7;
  EXPECT_NEAR(agent.predict(ctx, probe), 0.2 + 0.5 * 0.7, 0.02);
}

TEST(LinUcb, PenalizesConstraintViolations) {
  const env::ControlGrid grid = tiny_grid();
  LinUcbConfig cfg;
  cfg.cost_scale = 1.0;
  LinUcbAgent agent(grid, {1.0, 0.0}, {0.4, 0.5}, cfg);
  env::Context ctx;
  env::Measurement bad;
  bad.server_power_w = 0.01;
  bad.delay_s = 5.0;  // violates
  bad.map = 1.0;
  agent.update(ctx, 0, bad);
  // The penalty reward (not the tiny raw cost) entered the regression.
  EXPECT_GT(agent.predict(ctx, grid.policy(0)), 0.5);
}

TEST(LinUcb, Validation) {
  LinUcbConfig bad;
  bad.ridge_lambda = 0.0;
  EXPECT_THROW(LinUcbAgent(tiny_grid(), {1, 1}, {0.4, 0.5}, bad),
               std::invalid_argument);
  LinUcbAgent agent(tiny_grid(), {1, 1}, {0.4, 0.5}, {});
  EXPECT_THROW(agent.update(env::Context{}, 1u << 20, {}),
               std::invalid_argument);
}

TEST(RandomSearch, RemembersBestFeasible) {
  RandomSearchAgent agent(arm_grid(), {1.0, 0.0}, {0.4, 0.5}, 9, 0.5);
  const env::Context ctx;
  env::Measurement m;
  m.map = 1.0;
  m.delay_s = 0.1;
  m.server_power_w = 5.0;
  agent.update(ctx, 3, m);
  m.server_power_w = 2.0;
  agent.update(ctx, 7, m);
  m.server_power_w = 9.0;
  agent.update(ctx, 1, m);
  ASSERT_TRUE(agent.incumbent().has_value());
  EXPECT_EQ(*agent.incumbent(), 7u);
  EXPECT_DOUBLE_EQ(agent.incumbent_cost(), 2.0);
}

TEST(RandomSearch, IgnoresInfeasible) {
  RandomSearchAgent agent(arm_grid(), {1.0, 0.0}, {0.4, 0.5}, 9);
  env::Measurement m;
  m.map = 0.1;  // violates
  m.delay_s = 0.1;
  m.server_power_w = 1.0;
  agent.update(env::Context{}, 3, m);
  EXPECT_FALSE(agent.incumbent().has_value());
  EXPECT_THROW(agent.incumbent_cost(), std::logic_error);
}

TEST(RandomSearch, Validation) {
  EXPECT_THROW(RandomSearchAgent(arm_grid(), {1, 1}, {0.4, 0.5}, 1, 1.5),
               std::invalid_argument);
  RandomSearchAgent agent(arm_grid(), {1, 1}, {0.4, 0.5}, 1);
  EXPECT_THROW(agent.update(env::Context{}, agent.grid().size(), {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace edgebol::baselines
