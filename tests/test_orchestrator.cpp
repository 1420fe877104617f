#include "core/orchestrator.hpp"

#include <gtest/gtest.h>

#include "env/scenarios.hpp"

namespace edgebol::core {
namespace {

env::ControlGrid small_grid() {
  env::GridSpec spec;
  spec.levels_per_dim = 6;
  return env::ControlGrid(spec);
}

TEST(Orchestrator, RunsAndSummarizes) {
  EdgeBolConfig cfg;
  cfg.weights = {1.0, 8.0};
  cfg.constraints = {0.4, 0.5};
  EdgeBol agent(small_grid(), cfg);
  env::Testbed tb = env::make_static_testbed(35.0);

  Orchestrator orch(agent);
  const RunSummary s = orch.run(tb, 80);
  EXPECT_EQ(s.periods, 80u);
  EXPECT_GT(s.mean_cost, 0.0);
  EXPECT_LT(s.tail_mean_cost, s.mean_cost);  // it learned
  EXPECT_LT(s.violation_rate, 0.1);
  EXPECT_GT(s.final_safe_set_size, 1u);
  EXPECT_EQ(orch.history().size(), 80u);
  EXPECT_EQ(orch.history().front().period, 0);
  EXPECT_EQ(orch.history().back().period, 79);
}

TEST(Orchestrator, CallbackSeesEveryPeriod) {
  EdgeBol agent(small_grid(), EdgeBolConfig{});
  env::Testbed tb = env::make_static_testbed(35.0);
  OrchestratorOptions opts;
  opts.keep_history = false;
  Orchestrator orch(agent, opts);
  int calls = 0;
  double last_cost = 0.0;
  orch.set_callback([&](const PeriodRecord& r) {
    ++calls;
    last_cost = r.cost;
  });
  orch.run(tb, 20);
  EXPECT_EQ(calls, 20);
  EXPECT_GT(last_cost, 0.0);
  EXPECT_TRUE(orch.history().empty());  // disabled
}

TEST(Orchestrator, PeriodsContinueAcrossRuns) {
  EdgeBol agent(small_grid(), EdgeBolConfig{});
  env::Testbed tb = env::make_static_testbed(35.0);
  Orchestrator orch(agent);
  orch.run(tb, 10);
  orch.run(tb, 10);
  EXPECT_EQ(orch.history().size(), 20u);
  EXPECT_EQ(orch.history().back().period, 19);
}

TEST(Orchestrator, WorksThroughTheOranControlPlane) {
  EdgeBolConfig cfg;
  cfg.weights = {1.0, 8.0};
  cfg.constraints = {0.4, 0.5};
  EdgeBol agent(small_grid(), cfg);
  env::Testbed tb = env::make_static_testbed(35.0);
  oran::OranManagedTestbed managed(tb);
  Orchestrator orch(agent);
  const RunSummary s = orch.run(managed, 40);
  EXPECT_EQ(s.periods, 40u);
  EXPECT_EQ(managed.kpi_losses(), 0u);
}

TEST(Orchestrator, ViolationAccountingUsesSlack) {
  EdgeBolConfig cfg;
  cfg.constraints = {0.0001, 0.74};  // infeasible: S0 violates every period
  EdgeBol agent(small_grid(), cfg);
  env::Testbed tb = env::make_static_testbed(35.0);
  Orchestrator orch(agent);
  const RunSummary s = orch.run(tb, 15);
  EXPECT_GT(s.violation_rate, 0.9);
  for (const PeriodRecord& r : orch.history()) {
    EXPECT_TRUE(r.delay_violated);
  }
}

}  // namespace
}  // namespace edgebol::core
