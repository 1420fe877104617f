#include "core/edgebol.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "baselines/oracle.hpp"
#include "common/stats.hpp"
#include "env/scenarios.hpp"

namespace edgebol::core {
namespace {

// A coarser grid keeps the unit tests fast; algorithm behaviour is the same.
env::ControlGrid small_grid() {
  env::GridSpec spec;
  spec.levels_per_dim = 6;
  return env::ControlGrid(spec);
}

struct RunResult {
  std::vector<double> costs;
  std::vector<double> delays;
  std::vector<double> maps;
  std::vector<std::size_t> safe_sizes;
};

RunResult run(EdgeBol& agent, env::Testbed& tb, int periods) {
  RunResult r;
  for (int t = 0; t < periods; ++t) {
    const env::Context c = tb.context();
    const Decision d = agent.select(c);
    const env::Measurement m = tb.step(d.policy);
    agent.update(c, d.policy_index, m);
    r.costs.push_back(agent.weights().cost(m.server_power_w, m.bs_power_w));
    r.delays.push_back(m.delay_s);
    r.maps.push_back(m.map);
    r.safe_sizes.push_back(d.safe_set_size);
  }
  return r;
}

TEST(EdgeBol, FirstDecisionComesFromS0) {
  EdgeBolConfig cfg;
  EdgeBol agent(small_grid(), cfg);
  env::Testbed tb = env::make_static_testbed(35.0);
  const Decision d = agent.select(tb.context());
  EXPECT_EQ(d.policy_index, agent.grid().max_performance_index());
  EXPECT_EQ(d.safe_set_size, 1u);
  EXPECT_TRUE(d.fell_back_to_s0);
}

TEST(EdgeBol, SafeSetExpandsWithObservations) {
  EdgeBolConfig cfg;
  EdgeBol agent(small_grid(), cfg);
  env::Testbed tb = env::make_static_testbed(35.0);
  const RunResult r = run(agent, tb, 40);
  EXPECT_GT(r.safe_sizes.back(), 5u);
  EXPECT_GE(r.safe_sizes.back(), r.safe_sizes.front());
}

TEST(EdgeBol, CostConvergesNearOracle) {
  EdgeBolConfig cfg;
  cfg.weights = {1.0, 8.0};
  cfg.constraints = {0.4, 0.5};
  EdgeBol agent(small_grid(), cfg);
  env::Testbed tb = env::make_static_testbed(35.0);
  const RunResult r = run(agent, tb, 120);

  const auto oracle = baselines::exhaustive_oracle(tb, agent.grid(),
                                                   cfg.weights,
                                                   cfg.constraints);
  ASSERT_TRUE(oracle.feasible);
  std::vector<double> tail(r.costs.end() - 30, r.costs.end());
  const double converged = mean_of(tail);
  // The paper reports a ~2% optimality gap; allow 12% on the noisy run.
  EXPECT_LT(converged, oracle.cost * 1.12);
  // And convergence means improving on the initial S0 cost.
  std::vector<double> head(r.costs.begin(), r.costs.begin() + 5);
  EXPECT_LT(converged, mean_of(head));
}

TEST(EdgeBol, ConstraintsHoldWithHighProbability) {
  // 5 s sits above the delay surrogate's 3 s clip: the threshold is clipped
  // with the data, so starved candidates stay unsafe.
  for (const double d_max : {0.4, 5.0}) {
    SCOPED_TRACE(d_max);
    EdgeBolConfig cfg;
    cfg.constraints = {d_max, 0.5};
    EdgeBol agent(small_grid(), cfg);
    env::Testbed tb = env::make_static_testbed(35.0);
    const RunResult r = run(agent, tb, 120);
    int violations = 0;
    for (std::size_t t = 10; t < r.delays.size(); ++t) {
      // Small slack for observation noise, as in the paper's "with very high
      // probability" (they report 0.98).
      if (r.delays[t] > cfg.constraints.d_max_s * 1.05 ||
          r.maps[t] < cfg.constraints.map_min - 0.03)
        ++violations;
    }
    EXPECT_LE(violations, 6);
  }
}

TEST(EdgeBol, InfeasibleConstraintsFallBackToS0) {
  EdgeBolConfig cfg;
  cfg.constraints = {0.05, 0.74};  // unattainable: min delay >> 50 ms
  EdgeBol agent(small_grid(), cfg);
  env::Testbed tb = env::make_static_testbed(35.0);
  for (int t = 0; t < 25; ++t) {
    const env::Context c = tb.context();
    const Decision d = agent.select(c);
    EXPECT_TRUE(d.fell_back_to_s0) << "period " << t;
    EXPECT_EQ(d.policy_index, agent.grid().max_performance_index());
    agent.update(c, d.policy_index, tb.step(d.policy));
  }
}

TEST(EdgeBol, ConstraintChangeTakesEffectImmediately) {
  EdgeBolConfig cfg;
  cfg.constraints = {0.5, 0.4};
  EdgeBol agent(small_grid(), cfg);
  env::Testbed tb = env::make_static_testbed(35.0);
  run(agent, tb, 60);

  // Tighten the SLA: the safe set recomputed from the same GPs must shrink.
  const env::Context c = tb.context();
  const std::size_t before = agent.select(c).safe_set_size;
  agent.set_constraints({0.3, 0.6});
  const std::size_t after = agent.select(c).safe_set_size;
  EXPECT_LT(after, before);
  EXPECT_EQ(agent.constraints().d_max_s, 0.3);

  // And the policies selected under the tight SLA respect it.
  RunningStats delays;
  for (int t = 0; t < 25; ++t) {
    const env::Context ctx = tb.context();
    const Decision d = agent.select(ctx);
    const env::Measurement m = tb.step(d.policy);
    agent.update(ctx, d.policy_index, m);
    delays.add(m.delay_s);
  }
  EXPECT_LT(delays.mean(), 0.35);
}

TEST(EdgeBol, PriorObservationsWarmStart) {
  EdgeBolConfig cfg;
  EdgeBol cold(small_grid(), cfg);
  EdgeBol warm(small_grid(), cfg);
  env::Testbed tb = env::make_static_testbed(35.0);

  // Pre-production phase (§4.2): labelled observations of random policies,
  // imported as portable rows.
  env::Testbed pre = env::make_static_testbed(35.0);
  Rng rng(3);
  std::vector<PseudoObservation> rows;
  for (int i = 0; i < 30; ++i) {
    const auto& p = warm.grid().policy(rng.uniform_index(warm.grid().size()));
    const env::Context c = pre.context();
    const env::Measurement m = pre.step(p);
    rows.push_back({env::joint_features(c, p),
                    cfg.weights.cost(m.server_power_w, m.bs_power_w),
                    m.delay_s, m.map});
  }
  warm.import_observations(rows);
  EXPECT_EQ(warm.num_observations(), 30u);
  EXPECT_GT(warm.select(tb.context()).safe_set_size,
            cold.select(tb.context()).safe_set_size);
}

TEST(EdgeBol, CostScaleAutoTracksWeights) {
  EdgeBolConfig cheap, pricey;
  cheap.weights = {1.0, 1.0};
  pricey.weights = {1.0, 64.0};
  EXPECT_GT(EdgeBol(small_grid(), pricey).config().cost_scale,
            EdgeBol(small_grid(), cheap).config().cost_scale);
  EdgeBolConfig fixed;
  fixed.cost_scale = 123.0;
  EXPECT_DOUBLE_EQ(EdgeBol(small_grid(), fixed).config().cost_scale, 123.0);
}

TEST(EdgeBol, RunsWithRbfSurrogates) {
  // The kernel family is configurable (used by bench_ablation_kernel).
  EdgeBolConfig cfg;
  cfg.cost_hp = default_cost_hyperparams();
  cfg.delay_hp = default_delay_hyperparams();
  cfg.map_hp = default_map_hyperparams();
  cfg.cost_hp.family = gp::KernelFamily::kRbf;
  cfg.delay_hp.family = gp::KernelFamily::kRbf;
  cfg.map_hp.family = gp::KernelFamily::kRbf;
  EdgeBol agent(small_grid(), cfg);
  env::Testbed tb = env::make_static_testbed(35.0);
  const RunResult r = run(agent, tb, 60);
  // Still learns and still respects constraints most of the time.
  std::vector<double> head(r.costs.begin(), r.costs.begin() + 5);
  std::vector<double> tail(r.costs.end() - 15, r.costs.end());
  EXPECT_LT(mean_of(tail), mean_of(head) + 5.0);
  EXPECT_GT(r.safe_sizes.back(), 1u);
}

TEST(EdgeBol, Validation) {
  EdgeBolConfig cfg;
  cfg.beta_sqrt = -1.0;
  EXPECT_THROW(EdgeBol(small_grid(), cfg), std::invalid_argument);
  cfg = EdgeBolConfig{};
  cfg.initial_safe_set = {1u << 30};
  EXPECT_THROW(EdgeBol(small_grid(), cfg), std::invalid_argument);
  cfg = EdgeBolConfig{};
  cfg.cost_hp.lengthscales = {1.0};  // wrong dimensionality
  EXPECT_THROW(EdgeBol(small_grid(), cfg), std::invalid_argument);

  EdgeBol agent(small_grid(), EdgeBolConfig{});
  env::Testbed tb = env::make_static_testbed(35.0);
  EXPECT_THROW(agent.update(tb.context(), agent.grid().size(), {}),
               std::invalid_argument);
  EXPECT_THROW(agent.set_constraints({-1.0, 0.5}), std::invalid_argument);
}

TEST(EdgeBol, ValidationOfBudgetAndThreads) {
  // num_threads counts the calling thread; 0 is a configuration error.
  EdgeBolConfig cfg;
  cfg.num_threads = 0;
  EXPECT_THROW(EdgeBol(small_grid(), cfg), std::invalid_argument);

  // A budget below |S0| could not even hold the safe seed.
  cfg = EdgeBolConfig{};
  cfg.initial_safe_set = {0, 1, 2};
  cfg.gp_budget = 2;
  EXPECT_THROW(EdgeBol(small_grid(), cfg), std::invalid_argument);

  // Budget == |S0| and budget == 0 (unbounded) are both fine.
  cfg.gp_budget = 3;
  EXPECT_NO_THROW(EdgeBol(small_grid(), cfg));
  cfg.gp_budget = 0;
  EXPECT_NO_THROW(EdgeBol(small_grid(), cfg));
}

TEST(EdgeBol, BudgetBoundsObservationsInTheLoop) {
  EdgeBolConfig cfg;
  cfg.weights = {1.0, 8.0};
  cfg.constraints = {0.4, 0.5};
  cfg.gp_budget = 10;
  EdgeBol agent(small_grid(), cfg);
  env::Testbed tb = env::make_static_testbed(35.0);
  for (int t = 0; t < 30; ++t) {
    const env::Context c = tb.context();
    const Decision d = agent.select(c);
    agent.update(c, d.policy_index, tb.step(d.policy));
    EXPECT_LE(agent.num_observations(), cfg.gp_budget);
  }
  EXPECT_EQ(agent.num_observations(), cfg.gp_budget);
}

TEST(EdgeBol, SafeOptAcquisitionStaysSafeButConvergesSlower) {
  env::Testbed tb_lcb = env::make_static_testbed(35.0);
  env::Testbed tb_so = env::make_static_testbed(35.0);

  core::EdgeBolConfig cfg;
  cfg.weights = {1.0, 8.0};
  cfg.constraints = {0.4, 0.5};
  EdgeBol lcb(small_grid(), cfg);
  cfg.acquisition = AcquisitionKind::kSafeOpt;
  EdgeBol safeopt(small_grid(), cfg);

  const RunResult r_lcb = run(lcb, tb_lcb, 100);
  const RunResult r_so = run(safeopt, tb_so, 100);

  // Both respect the constraints...
  int so_viol = 0;
  for (std::size_t t = 10; t < r_so.delays.size(); ++t) {
    so_viol += (r_so.delays[t] > 0.4 * 1.1 || r_so.maps[t] < 0.5 - 0.04);
  }
  EXPECT_LE(so_viol, 8);
  // ...but SafeOpt's width-directed sampling leaves its average converged
  // cost above the LCB's (the §5 observation).
  std::vector<double> lcb_tail(r_lcb.costs.end() - 30, r_lcb.costs.end());
  std::vector<double> so_tail(r_so.costs.end() - 30, r_so.costs.end());
  EXPECT_LT(mean_of(lcb_tail), mean_of(so_tail) + 5.0);
}

TEST(EdgeBol, KnowledgeTransfersAcrossContexts) {
  // Train at one SNR, then evaluate the safe set at a *similar* unseen SNR:
  // the GP correlations should carry knowledge over (§6.5).
  EdgeBolConfig cfg;
  EdgeBol agent(small_grid(), cfg);
  env::Testbed train = env::make_static_testbed(33.0);
  run(agent, train, 50);
  env::Testbed eval = env::make_static_testbed(35.0);
  EXPECT_GT(agent.select(eval.context()).safe_set_size, 3u);
}

}  // namespace
}  // namespace edgebol::core
