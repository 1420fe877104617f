#include "core/generic_bol.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/formulations.hpp"
#include "env/scenarios.hpp"

namespace edgebol::core {
namespace {

// A synthetic 1-D control problem: minimize f(x) = (x - 0.7)^2 subject to
// g(x) = x >= 0.3, with a 1-D context the functions ignore.
struct Synthetic {
  linalg::Matrix controls;
  MetricSpec objective;
  MetricSpec g;

  Synthetic() {
    for (double x : linspace(0.0, 1.0, 21)) controls.append_row({x});
    gp::GpHyperparams hp;
    hp.lengthscales = {1.0, 0.6};  // context + control
    hp.amplitude = 0.1;
    hp.noise_variance = 1e-4;
    objective.name = "f";
    objective.hp = hp;
    g.name = "g";
    g.hp = hp;
  }

  GenericSafeBol make(double threshold = 0.3,
                      SafeBolOptions options = {.beta_sqrt = 2.0}) const {
    return GenericSafeBol(controls, objective, {g},
                          {{0, BoundKind::kLower, threshold}},
                          /*s0=*/{20}, options);
  }
};

double f_true(double x) { return (x - 0.7) * (x - 0.7); }

TEST(MetricSpec, TransformsClipScaleLog) {
  MetricSpec spec;
  spec.scale = 2.0;
  spec.clip = 10.0;
  EXPECT_DOUBLE_EQ(spec.transform(4.0), 2.0);
  EXPECT_DOUBLE_EQ(spec.transform(100.0), 5.0);  // clipped to 10, then /2
  spec.log_transform = true;
  EXPECT_NEAR(spec.transform(2.0 * std::exp(1.0)), 1.0, 1e-12);
  EXPECT_THROW(spec.transform(-1.0), std::invalid_argument);
  // untransform inverts everything but the clip.
  EXPECT_NEAR(spec.untransform(spec.transform(3.0)), 3.0, 1e-12);
  EXPECT_NEAR(spec.untransform(spec.transform(50.0)), 10.0, 1e-12);
}

TEST(GenericSafeBol, StartsFromS0) {
  const Synthetic syn;
  GenericSafeBol bol = syn.make();
  const GenericDecision d = bol.select({0.5});
  EXPECT_EQ(d.index, 20u);
  EXPECT_TRUE(d.fell_back_to_s0);
  EXPECT_EQ(d.safe_set_size, 1u);
}

TEST(GenericSafeBol, ConvergesToConstrainedMinimum) {
  const Synthetic syn;
  GenericSafeBol bol = syn.make();
  Rng rng(3);
  const linalg::Vector ctx{0.5};
  double last_x = 1.0;
  for (int t = 0; t < 60; ++t) {
    const GenericDecision d = bol.select(ctx);
    const double x = syn.controls(d.index, 0);
    bol.update(ctx, d.index, f_true(x) + rng.normal(0.0, 0.01),
               {x + rng.normal(0.0, 0.01)});
    last_x = x;
  }
  // Unconstrained minimum x = 0.7 is feasible (g = x >= 0.3).
  EXPECT_NEAR(last_x, 0.7, 0.1);
}

TEST(GenericSafeBol, RespectsLowerBoundConstraint) {
  // Tighten the constraint so it becomes active: x >= 0.8 forces the
  // constrained optimum to x = 0.8.
  const Synthetic syn;
  GenericSafeBol bol = syn.make(0.8);
  Rng rng(5);
  const linalg::Vector ctx{0.5};
  int violations = 0;
  double last_x = 1.0;
  for (int t = 0; t < 80; ++t) {
    const GenericDecision d = bol.select(ctx);
    const double x = syn.controls(d.index, 0);
    violations += (x < 0.8 - 0.051);  // grid step tolerance
    bol.update(ctx, d.index, f_true(x) + rng.normal(0.0, 0.01),
               {x + rng.normal(0.0, 0.01)});
    last_x = x;
  }
  EXPECT_LE(violations, 4);
  // Safe certification keeps the final choice a little inside the boundary
  // (the grid point exactly at 0.8 may never be certifiable under noise).
  EXPECT_GE(last_x, 0.8 - 0.051);
  EXPECT_LE(last_x, 0.95);
}

TEST(GenericSafeBol, ThresholdChangeShiftsTheOptimum) {
  const Synthetic syn;
  GenericSafeBol bol = syn.make(0.3);
  Rng rng(7);
  const linalg::Vector ctx{0.5};
  for (int t = 0; t < 50; ++t) {
    const GenericDecision d = bol.select(ctx);
    const double x = syn.controls(d.index, 0);
    bol.update(ctx, d.index, f_true(x) + rng.normal(0.0, 0.01),
               {x + rng.normal(0.0, 0.01)});
  }
  bol.set_threshold(0, 0.9);
  EXPECT_DOUBLE_EQ(bol.threshold(0), 0.9);
  RunningStats xs;
  for (int t = 0; t < 15; ++t) {
    const GenericDecision d = bol.select(ctx);
    const double x = syn.controls(d.index, 0);
    xs.add(x);
    bol.update(ctx, d.index, f_true(x) + rng.normal(0.0, 0.01),
               {x + rng.normal(0.0, 0.01)});
  }
  EXPECT_GT(xs.mean(), 0.8);
}

TEST(GenericSafeBol, Validation) {
  const Synthetic syn;
  EXPECT_THROW(GenericSafeBol(linalg::Matrix{}, syn.objective, {}, {}, {0}),
               std::invalid_argument);
  EXPECT_THROW(GenericSafeBol(syn.controls, syn.objective, {}, {}, {}),
               std::invalid_argument);
  EXPECT_THROW(GenericSafeBol(syn.controls, syn.objective, {}, {}, {999}),
               std::invalid_argument);
  EXPECT_THROW(GenericSafeBol(syn.controls, syn.objective, {},
                              {{5, BoundKind::kUpper, 0.0}}, {0}),
               std::invalid_argument);
  MetricSpec bad = syn.objective;
  bad.hp.lengthscales = {0.4};  // no room for a context dimension
  EXPECT_THROW(GenericSafeBol(syn.controls, bad, {}, {}, {0}),
               std::invalid_argument);
  // SafeOpt's expander test needs the candidates' adjacency.
  GenericSafeBol safeopt =
      syn.make(0.3, {.acquisition = AcquisitionKind::kSafeOpt});
  EXPECT_THROW(safeopt.select({0.5}), std::invalid_argument);

  GenericSafeBol bol = syn.make();
  EXPECT_THROW(bol.select({0.1, 0.2}), std::invalid_argument);
  EXPECT_THROW(bol.update({0.5}, 999, 0.0, {0.0}), std::invalid_argument);
  EXPECT_THROW(bol.update({0.5}, 0, 0.0, {}), std::invalid_argument);
  EXPECT_THROW(bol.set_threshold(5, 0.0), std::invalid_argument);
}

TEST(GenericSafeBol, ExportImportRoundTripsRawRows) {
  Synthetic syn;
  syn.g.prior_mean = 0.4;  // stored targets are offset; rows are not
  syn.g.scale = 2.0;
  GenericSafeBol teacher = syn.make();
  Rng rng(4);
  const linalg::Vector ctx{0.5};
  for (int t = 0; t < 12; ++t) {
    const GenericDecision d = teacher.select(ctx);
    const double x = syn.controls(d.index, 0);
    teacher.update(ctx, d.index, f_true(x) + rng.normal(0.0, 0.01),
                   {x + rng.normal(0.0, 0.01)});
  }
  const std::vector<RawObservation> rows = teacher.export_rows(64);
  ASSERT_EQ(rows.size(), 12u);
  GenericSafeBol student = syn.make();
  student.import_rows(rows);
  EXPECT_EQ(student.num_observations(), 12u);
  const std::vector<RawObservation> again = student.export_rows(64);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    EXPECT_EQ(again[r].z, rows[r].z);
    EXPECT_NEAR(again[r].objective, rows[r].objective, 1e-12);
    EXPECT_NEAR(again[r].metrics[0], rows[r].metrics[0], 1e-12);
  }
  const GenericDecision a = teacher.select(ctx);
  const GenericDecision b = student.select(ctx);
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.safe_set_size, b.safe_set_size);

  // Malformed rows are rejected before anything is conditioned.
  std::vector<RawObservation> bad = {rows[0]};
  bad[0].metrics.clear();
  EXPECT_THROW(student.import_rows(bad), std::invalid_argument);
  bad = {rows[0]};
  bad[0].objective = std::nan("");
  EXPECT_THROW(student.import_rows(bad), std::invalid_argument);
  bad = {rows[0], rows[1]};
  bad[1].z = {0.5};
  EXPECT_THROW(student.import_rows(bad), std::invalid_argument);
  EXPECT_EQ(student.num_observations(), 12u);
}

TEST(PowerBudgetBol, S0IsTheFrugalHighPrecisionCorner) {
  env::GridSpec spec;
  spec.levels_per_dim = 5;
  const env::ControlGrid grid(spec);
  const env::ControlPolicy& p =
      grid.policy(power_budget_initial_policy(grid));
  EXPECT_DOUBLE_EQ(p.resolution, spec.resolution_max);
  EXPECT_DOUBLE_EQ(p.airtime, spec.airtime_min);
  EXPECT_DOUBLE_EQ(p.gpu_speed, spec.gpu_speed_min);
  EXPECT_EQ(p.mcs_cap, spec.mcs_max);
}

TEST(PowerBudgetBol, MinimizesDelayWithinBudgets) {
  env::GridSpec spec;
  spec.levels_per_dim = 6;
  PowerBudgetConfig cfg;
  cfg.server_power_budget_w = 130.0;
  cfg.bs_power_budget_w = 5.6;
  cfg.map_min = 0.5;
  PowerBudgetBol agent(env::ControlGrid{spec}, cfg);
  env::Testbed tb = env::make_static_testbed(35.0);

  RunningStats head_delay, tail_delay;
  int budget_violations = 0;
  const int periods = 100;
  for (int t = 0; t < periods; ++t) {
    const env::Context c = tb.context();
    const GenericDecision d = agent.select(c);
    const env::Measurement m = tb.step(agent.policy(d.index));
    agent.update(c, d.index, m);
    if (t < 5) head_delay.add(m.delay_s);
    if (t >= periods - 25) {
      tail_delay.add(m.delay_s);
      budget_violations += (m.server_power_w > cfg.server_power_budget_w * 1.05 ||
                            m.bs_power_w > cfg.bs_power_budget_w * 1.05 ||
                            m.map < cfg.map_min - 0.03);
    }
  }
  // The S0 corner (min airtime) has a long delay; the learner must find a
  // faster configuration without blowing either power budget.
  EXPECT_LT(tail_delay.mean(), head_delay.mean());
  EXPECT_LE(budget_violations, 3);
}

TEST(PowerBudgetBol, BudgetChangeAtRuntime) {
  env::GridSpec spec;
  spec.levels_per_dim = 5;
  PowerBudgetBol agent(env::ControlGrid{spec}, PowerBudgetConfig{});
  EXPECT_NO_THROW(agent.set_server_power_budget(100.0));
  EXPECT_NO_THROW(agent.set_bs_power_budget(5.0));
  EXPECT_THROW(agent.set_server_power_budget(0.0), std::invalid_argument);
  EXPECT_THROW(agent.set_bs_power_budget(-1.0), std::invalid_argument);
}

}  // namespace
}  // namespace edgebol::core
