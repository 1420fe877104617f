// The one period loop (core::run_periods) and the one violation rule
// (core::violates).

#include "core/period_loop.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "baselines/ddpg.hpp"
#include "baselines/egreedy.hpp"
#include "common/stats.hpp"
#include "env/scenarios.hpp"
#include "oran/oran_env.hpp"

namespace edgebol::core {
namespace {

using Period = PeriodRecord<Decision>;

env::ControlGrid small_grid() {
  env::GridSpec spec;
  spec.levels_per_dim = 6;
  return env::ControlGrid(spec);
}

EdgeBolConfig sla_config() {
  EdgeBolConfig cfg;
  cfg.weights = {1.0, 8.0};
  cfg.constraints = {0.4, 0.5};
  return cfg;
}

template <typename Env, typename Agent>
auto history(Env& env, Agent& agent, int periods) {
  std::vector<PeriodRecord<decltype(agent.select(env.context()))>> out;
  run_periods(env, agent, periods,
              [&](const auto& r) { out.push_back(r); });
  return out;
}

TEST(Violates, IsTheNegatedFeasibilityTest) {
  const ConstraintSpec cs{0.4, 0.5};
  env::Measurement m;
  m.delay_s = 0.4;  // on both bounds: feasible, no slack either way
  m.map = 0.5;
  EXPECT_FALSE(violates(cs, m));
  m.delay_s = std::nextafter(0.4, 1.0);
  EXPECT_TRUE(violates(cs, m));
  m.delay_s = 0.4;
  m.map = std::nextafter(0.5, 0.0);
  EXPECT_TRUE(violates(cs, m));
}

TEST(Violates, ALostKpiReadsAsAViolation) {
  const ConstraintSpec cs{0.4, 0.5};
  env::Measurement m;
  m.delay_s = std::numeric_limits<double>::quiet_NaN();
  m.map = 0.9;
  EXPECT_TRUE(violates(cs, m));
  m.delay_s = 0.1;
  m.map = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(violates(cs, m));
}

TEST(RunPeriods, RecordsEveryPeriodAndLearns) {
  EdgeBol agent(small_grid(), sla_config());
  env::Testbed tb = env::make_static_testbed(35.0);
  const std::vector<Period> hist = history(tb, agent, 80);

  ASSERT_EQ(hist.size(), 80u);
  RunningStats cost, tail;
  int violations = 0;
  for (std::size_t t = 0; t < hist.size(); ++t) {
    const Period& r = hist[t];
    EXPECT_EQ(r.period, static_cast<int>(t));
    EXPECT_EQ(r.policy, r.decision.policy);
    ASSERT_TRUE(r.expected.has_value());
    const double c = agent.weights().cost(r.measurement.server_power_w,
                                          r.measurement.bs_power_w);
    cost.add(c);
    if (t >= 60) tail.add(c);
    violations += violates(agent.constraints(), *r.expected);
  }
  EXPECT_GT(cost.mean(), 0.0);
  EXPECT_LT(tail.mean(), cost.mean());  // it learned
  EXPECT_LT(violations / 80.0, 0.1);
  EXPECT_GT(hist.back().decision.safe_set_size, 1u);
}

TEST(RunPeriods, CallbackSeesEveryPeriodInOrder) {
  EdgeBol agent(small_grid(), EdgeBolConfig{});
  env::Testbed tb = env::make_static_testbed(35.0);
  int calls = 0;
  double last_cost = 0.0;
  run_periods(tb, agent, 20, [&](const Period& r) {
    EXPECT_EQ(r.period, calls);
    ++calls;
    last_cost = agent.weights().cost(r.measurement.server_power_w,
                                     r.measurement.bs_power_w);
  });
  EXPECT_EQ(calls, 20);
  EXPECT_GT(last_cost, 0.0);
}

TEST(RunPeriods, WorksThroughTheOranControlPlane) {
  EdgeBol agent(small_grid(), sla_config());
  env::Testbed tb = env::make_static_testbed(35.0);
  oran::OranManagedTestbed managed(tb);
  const std::vector<Period> hist = history(managed, agent, 40);
  EXPECT_EQ(hist.size(), 40u);
  EXPECT_EQ(managed.kpi_losses(), 0u);
  for (const Period& r : hist) EXPECT_TRUE(r.expected.has_value());
}

// Select, step and update written out: the trajectory the loop must match.
template <typename Env>
std::vector<Period> bare_loop(Env& env, EdgeBol& agent, int periods) {
  std::vector<Period> out;
  for (int t = 0; t < periods; ++t) {
    Period r;
    r.context = env.context();
    r.decision = agent.select(r.context);
    r.measurement = env.step(r.decision.policy);
    agent.update(r.context, r.decision.policy_index, r.measurement);
    out.push_back(r);
  }
  return out;
}

void expect_same_trajectory(const std::vector<Period>& a,
                            const std::vector<Period>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t t = 0; t < a.size(); ++t) {
    EXPECT_EQ(a[t].decision.policy_index, b[t].decision.policy_index) << t;
    EXPECT_EQ(a[t].decision.safe_set_size, b[t].decision.safe_set_size) << t;
    EXPECT_EQ(a[t].context.cqi_mean, b[t].context.cqi_mean) << t;
    EXPECT_EQ(a[t].context.cqi_var, b[t].context.cqi_var) << t;
    const env::Measurement& ma = a[t].measurement;
    const env::Measurement& mb = b[t].measurement;
    EXPECT_EQ(ma.delay_s, mb.delay_s) << t;
    EXPECT_EQ(ma.map, mb.map) << t;
    EXPECT_EQ(ma.server_power_w, mb.server_power_w) << t;
    EXPECT_EQ(ma.bs_power_w, mb.bs_power_w) << t;
    EXPECT_EQ(ma.mean_snr_db, mb.mean_snr_db) << t;
  }
}

TEST(RunPeriods, TakingTheNoiseFreeOutcomePerturbsNothingOnTheTestbed) {
  // A channel that moves every period: expected() must not touch it.
  constexpr int kPeriods = 60;
  EdgeBol looped(small_grid(), sla_config());
  env::Testbed tb_a = env::make_dynamic_testbed(5.0, 38.0, 6, 4);
  EdgeBol bare(small_grid(), sla_config());
  env::Testbed tb_b = env::make_dynamic_testbed(5.0, 38.0, 6, 4);
  expect_same_trajectory(history(tb_a, looped, kPeriods),
                         bare_loop(tb_b, bare, kPeriods));
}

TEST(RunPeriods, TakingTheNoiseFreeOutcomePerturbsNothingOnTheOranPlane) {
  constexpr int kPeriods = 40;
  EdgeBolConfig cfg = sla_config();
  cfg.resilience.enabled = true;
  env::Testbed tb_a = env::make_static_testbed(30.0);
  oran::OranManagedTestbed managed_a(tb_a);
  EdgeBol looped(small_grid(), cfg);
  env::Testbed tb_b = env::make_static_testbed(30.0);
  oran::OranManagedTestbed managed_b(tb_b);
  EdgeBol bare(small_grid(), cfg);
  expect_same_trajectory(history(managed_a, looped, kPeriods),
                         bare_loop(managed_b, bare, kPeriods));
}

TEST(RunPeriods, DrivesPolicyAndIndexAgentsLikeTheirBareLoops) {
  const env::ControlGrid grid = small_grid();
  const CostWeights w{1.0, 8.0};
  const ConstraintSpec cs{0.4, 0.5};

  // DDPG decides a point of the continuous box and is updated with it.
  baselines::DdpgAgent ddpg_a(grid.spec(), w, cs, {}, 7);
  baselines::DdpgAgent ddpg_b(grid.spec(), w, cs, {}, 7);
  env::Testbed tb_a = env::make_static_testbed(35.0);
  env::Testbed tb_b = env::make_static_testbed(35.0);
  const auto looped = history(tb_a, ddpg_a, 30);
  for (int t = 0; t < 30; ++t) {
    const env::Context c = tb_b.context();
    const env::ControlPolicy p = ddpg_b.select(c);
    const env::Measurement m = tb_b.step(p);
    ddpg_b.update(c, p, m);
    EXPECT_EQ(looped[t].policy, p) << t;
    EXPECT_EQ(looped[t].measurement.delay_s, m.delay_s) << t;
  }

  // A bare-index agent has its policy looked up in its grid.
  baselines::EGreedyAgent eg_a(grid, w, cs, {}, 9);
  baselines::EGreedyAgent eg_b(grid, w, cs, {}, 9);
  env::Testbed tb_c = env::make_static_testbed(35.0);
  env::Testbed tb_d = env::make_static_testbed(35.0);
  const auto looped_eg = history(tb_c, eg_a, 30);
  for (int t = 0; t < 30; ++t) {
    const env::Context c = tb_d.context();
    const std::size_t arm = eg_b.select(c);
    const env::Measurement m = tb_d.step(grid.policy(arm));
    eg_b.update(c, arm, m);
    EXPECT_EQ(looped_eg[t].decision, arm) << t;
    EXPECT_EQ(looped_eg[t].policy, grid.policy(arm)) << t;
    EXPECT_EQ(looped_eg[t].measurement.delay_s, m.delay_s) << t;
  }
}

TEST(RunPeriods, ALostKpiIsJudgedOnTheNoiseFreeOutcome) {
  // The E2 partition of test_resilience: while it lasts, every period's BS
  // power sample is lost (NaN), but the period is still judged on the
  // chosen policy's noise-free outcome, which never goes dark.
  constexpr int kPeriods = 100;
  constexpr int kPartitionStart = 60;
  constexpr int kPartitionEnd = 72;
  EdgeBolConfig cfg;
  cfg.constraints = {0.4, 0.5};
  cfg.resilience.enabled = true;
  env::Testbed tb = env::make_static_testbed(35.0);
  oran::OranManagedTestbed managed(tb);
  EdgeBol agent(small_grid(), cfg);
  std::vector<Period> hist;
  run_periods(managed, agent, kPeriods, [&](const Period& r) {
    hist.push_back(r);
    if (r.period == kPartitionStart - 1) managed.set_e2_partitioned(true);
    if (r.period == kPartitionEnd - 1) managed.set_e2_partitioned(false);
  });

  ASSERT_EQ(hist.size(), static_cast<std::size_t>(kPeriods));
  for (int t = kPartitionStart; t < kPartitionEnd; ++t) {
    ASSERT_TRUE(std::isnan(hist[t].measurement.bs_power_w)) << t;
    ASSERT_TRUE(hist[t].expected.has_value()) << t;
    EXPECT_TRUE(std::isfinite(hist[t].expected->bs_power_w)) << t;
    EXPECT_FALSE(violates(cfg.constraints, *hist[t].expected))
        << "period " << t;
  }
}

TEST(RunPeriods, InfeasibleSlaCountsEveryPeriod) {
  EdgeBolConfig cfg;
  cfg.constraints = {0.0001, 0.74};  // infeasible: S0 violates every period
  EdgeBol agent(small_grid(), cfg);
  env::Testbed tb = env::make_static_testbed(35.0);
  int violations = 0;
  run_periods(tb, agent, 15, [&](const Period& r) {
    violations += violates(cfg.constraints, *r.expected);
  });
  EXPECT_EQ(violations, 15);
}

}  // namespace
}  // namespace edgebol::core
