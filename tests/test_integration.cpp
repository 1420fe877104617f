// End-to-end integration tests: the EdgeBOL agent driving the platform
// through the full O-RAN control plane, multi-user scenarios, and dynamic
// contexts — miniature versions of the paper's §6 experiments.

#include <gtest/gtest.h>

#include "baselines/oracle.hpp"
#include "common/stats.hpp"
#include "core/edgebol.hpp"
#include "env/scenarios.hpp"
#include "oran/oran_env.hpp"

namespace edgebol {
namespace {

env::ControlGrid small_grid() {
  env::GridSpec spec;
  spec.levels_per_dim = 6;
  return env::ControlGrid(spec);
}

TEST(Integration, EdgeBolOverOranControlPlane) {
  env::Testbed tb = env::make_static_testbed(35.0);
  oran::OranManagedTestbed managed(tb);

  core::EdgeBolConfig cfg;
  cfg.weights = {1.0, 8.0};
  cfg.constraints = {0.4, 0.5};
  core::EdgeBol agent(small_grid(), cfg);

  RunningStats head, tail;
  for (int t = 0; t < 80; ++t) {
    const env::Context c = managed.context();
    const core::Decision d = agent.select(c);
    const env::Measurement m = managed.step(d.policy);
    agent.update(c, d.policy_index, m);
    const double u = cfg.weights.cost(m.server_power_w, m.bs_power_w);
    if (t < 5) head.add(u);
    if (t >= 60) tail.add(u);
  }
  // Learned through the control plane: cost improved, KPIs flowed.
  EXPECT_LT(tail.mean(), head.mean());
  EXPECT_EQ(managed.kpi_losses(), 0u);
  EXPECT_EQ(managed.env_node().steps_run(), 80u);
  EXPECT_GT(managed.a1().down.messages_carried() +
                managed.a1().up.messages_carried(),
            0u);
}

TEST(Integration, HeterogeneousUsersStayNearOracle) {
  // Miniature Fig. 12: trained on the scenario, EdgeBOL's converged cost
  // should be within a modest factor of the offline optimum.
  env::Testbed tb = env::make_heterogeneous_testbed(3);
  core::EdgeBolConfig cfg;
  cfg.weights = {1.0, 4.0};
  cfg.constraints = {2.0, 0.6};  // the paper's §6.4 settings
  core::EdgeBol agent(small_grid(), cfg);

  RunningStats tail;
  for (int t = 0; t < 100; ++t) {
    const env::Context c = tb.context();
    const core::Decision d = agent.select(c);
    const env::Measurement m = tb.step(d.policy);
    agent.update(c, d.policy_index, m);
    if (t >= 70) tail.add(cfg.weights.cost(m.server_power_w, m.bs_power_w));
  }
  const auto oracle = baselines::exhaustive_oracle(tb, agent.grid(),
                                                   cfg.weights,
                                                   cfg.constraints);
  ASSERT_TRUE(oracle.feasible);
  EXPECT_LT(tail.mean(), oracle.cost * 1.15);
}

TEST(Integration, DynamicContextsAreTracked) {
  // Miniature Fig. 13: SNR sweeps quickly; after a couple of sweep cycles
  // the agent must still respect constraints feasible for each context.
  env::TestbedConfig tcfg;
  tcfg.fading_sigma_db = 0.5;
  env::Testbed tb = env::make_dynamic_testbed(12.0, 38.0, 5, 3, tcfg);

  core::EdgeBolConfig cfg;
  cfg.weights = {1.0, 8.0};
  cfg.constraints = {0.6, 0.5};
  core::EdgeBol agent(small_grid(), cfg);

  int violations = 0;
  int considered = 0;
  std::size_t max_safe = 0;
  for (int t = 0; t < 130; ++t) {
    const env::Context c = tb.context();
    const core::Decision d = agent.select(c);
    const env::Measurement m = tb.step(d.policy);
    agent.update(c, d.policy_index, m);
    max_safe = std::max(max_safe, d.safe_set_size);
    if (t >= 60) {  // after ~2 sweep cycles
      ++considered;
      if (m.delay_s > cfg.constraints.d_max_s * 1.1 ||
          m.map < cfg.constraints.map_min - 0.04)
        ++violations;
    }
  }
  EXPECT_GT(max_safe, 5u);
  EXPECT_LT(static_cast<double>(violations) / considered, 0.2);
}

TEST(Integration, RuntimeConstraintSwitchRecoversQuickly) {
  // Miniature Fig. 14 (EdgeBOL side): change the SLA mid-run and require the
  // new delay bound to be met almost immediately.
  env::Testbed tb = env::make_static_testbed(35.0);
  core::EdgeBolConfig cfg;
  cfg.weights = {1.0, 8.0};
  cfg.constraints = {0.5, 0.4};
  core::EdgeBol agent(small_grid(), cfg);

  for (int t = 0; t < 60; ++t) {
    const env::Context c = tb.context();
    const core::Decision d = agent.select(c);
    agent.update(c, d.policy_index, tb.step(d.policy));
  }
  agent.set_constraints({0.35, 0.55});
  int violations = 0;
  for (int t = 0; t < 30; ++t) {
    const env::Context c = tb.context();
    const core::Decision d = agent.select(c);
    const env::Measurement m = tb.step(d.policy);
    agent.update(c, d.policy_index, m);
    if (t >= 3 && (m.delay_s > 0.35 * 1.1 || m.map < 0.55 - 0.04))
      ++violations;
  }
  EXPECT_LE(violations, 3);
}

}  // namespace
}  // namespace edgebol
