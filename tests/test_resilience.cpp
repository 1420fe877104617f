// Degraded-mode behaviour of the learning loop: the KPI validation gate,
// the violation watchdog, the last-known-safe fallback, and the end-to-end
// chaos acceptance run from the fault-injection framework.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/edgebol.hpp"
#include "core/period_loop.hpp"
#include "env/scenarios.hpp"
#include "fault/fault.hpp"
#include "oran/oran_env.hpp"

namespace edgebol::core {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

env::ControlGrid small_grid() {
  env::GridSpec spec;
  spec.levels_per_dim = 6;
  return env::ControlGrid(spec);
}

EdgeBolConfig resilient_config() {
  EdgeBolConfig cfg;
  cfg.constraints = {0.4, 0.5};
  cfg.resilience.enabled = true;
  return cfg;
}

env::Measurement healthy_measurement(int i = 0) {
  env::Measurement m;
  m.delay_s = 0.20 + 0.002 * (i % 7);
  m.map = 0.80 + 0.001 * (i % 5);
  m.server_power_w = 50.0 + 0.3 * (i % 11);
  m.bs_power_w = 10.0 + 0.1 * (i % 3);
  return m;
}

TEST(KpiGate, RejectsNanAndInf) {
  EdgeBol agent(small_grid(), resilient_config());
  env::Testbed tb = env::make_static_testbed(35.0);
  const env::Context c = tb.context();
  const Decision d = agent.select(c);

  env::Measurement m = healthy_measurement();
  m.bs_power_w = kNan;
  agent.update(c, d.policy_index, m);
  m = healthy_measurement();
  m.delay_s = std::numeric_limits<double>::infinity();
  agent.update(c, d.policy_index, m);

  EXPECT_EQ(agent.num_observations(), 0u);
  EXPECT_EQ(agent.resilience_stats().kpi_rejected_nan, 2u);
}

TEST(KpiGate, RejectsOutOfPhysicalRange) {
  EdgeBol agent(small_grid(), resilient_config());
  env::Testbed tb = env::make_static_testbed(35.0);
  const env::Context c = tb.context();
  const Decision d = agent.select(c);

  env::Measurement m = healthy_measurement();
  m.delay_s = 100.0;  // > max_delay_s
  agent.update(c, d.policy_index, m);
  m = healthy_measurement();
  m.map = 1.4;  // mAP is a fraction
  agent.update(c, d.policy_index, m);
  m = healthy_measurement();
  m.server_power_w = 5000.0;  // > max_power_w
  agent.update(c, d.policy_index, m);

  EXPECT_EQ(agent.num_observations(), 0u);
  EXPECT_EQ(agent.resilience_stats().kpi_rejected_range, 3u);
}

TEST(KpiGate, RejectsStatisticalOutlierAfterWarmup) {
  EdgeBol agent(small_grid(), resilient_config());
  env::Testbed tb = env::make_static_testbed(35.0);
  const env::Context c = tb.context();
  const Decision d = agent.select(c);

  for (int i = 0; i < 15; ++i)
    agent.update(c, d.policy_index, healthy_measurement(i));
  const std::size_t n = agent.num_observations();
  EXPECT_EQ(agent.resilience_stats().kpi_rejected_total(), 0u);

  // A 10x meter spike: inside the physical range, far outside the history.
  env::Measurement spiked = healthy_measurement();
  spiked.server_power_w = 500.0;
  agent.update(c, d.policy_index, spiked);

  EXPECT_EQ(agent.num_observations(), n);
  EXPECT_EQ(agent.resilience_stats().kpi_rejected_outlier, 1u);
}

TEST(KpiGate, DisabledGateReproducesFragileLoop) {
  EdgeBolConfig cfg;  // resilience off (pre-PR behaviour)
  EdgeBol agent(small_grid(), cfg);
  env::Testbed tb = env::make_static_testbed(35.0);
  const env::Context c = tb.context();
  const Decision d = agent.select(c);
  agent.update(c, d.policy_index, healthy_measurement());
  EXPECT_EQ(agent.num_observations(), 1u);
  EXPECT_EQ(agent.resilience_stats().kpi_rejected_total(), 0u);
}

TEST(Watchdog, ConsecutiveViolationsTripConservativeHold) {
  EdgeBolConfig cfg = resilient_config();
  EdgeBol agent(small_grid(), cfg);
  env::Testbed tb = env::make_static_testbed(35.0);
  const env::Context c = tb.context();
  Decision d = agent.select(c);

  env::Measurement violating = healthy_measurement();
  violating.delay_s = 0.9;  // d_max 0.4, slack 1.05 -> violation
  for (int i = 0; i < cfg.resilience.watchdog_violations; ++i)
    agent.update(c, d.policy_index, violating);

  EXPECT_EQ(agent.resilience_stats().watchdog_trips, 1u);

  // The hold lasts exactly watchdog_hold_periods selects...
  for (int i = 0; i < cfg.resilience.watchdog_hold_periods; ++i) {
    d = agent.select(c);
    EXPECT_TRUE(d.watchdog_hold);
  }
  // ...then normal selection resumes.
  d = agent.select(c);
  EXPECT_FALSE(d.watchdog_hold);
  EXPECT_EQ(agent.resilience_stats().watchdog_hold_selects,
            static_cast<std::size_t>(cfg.resilience.watchdog_hold_periods));
}

TEST(Watchdog, NonConsecutiveViolationsDoNotTrip) {
  EdgeBolConfig cfg = resilient_config();
  EdgeBol agent(small_grid(), cfg);
  env::Testbed tb = env::make_static_testbed(35.0);
  const env::Context c = tb.context();
  const Decision d = agent.select(c);

  env::Measurement violating = healthy_measurement();
  violating.delay_s = 0.9;
  for (int i = 0; i < 6; ++i) {
    agent.update(c, d.policy_index, violating);      // 1..3 in a row
    if (i % 3 == 2) agent.update(c, d.policy_index, healthy_measurement(i));
  }
  EXPECT_EQ(agent.resilience_stats().watchdog_trips, 0u);
  EXPECT_FALSE(agent.select(c).watchdog_hold);
}

// Satellite: tightening constraints at runtime until nothing qualifies must
// fall back to the last empirically-safe policy, not crash or pick unsafely.
TEST(LastSafeFallback, RuntimeTighteningFallsBackToKnownSafePolicy) {
  EdgeBol agent(small_grid(), resilient_config());
  env::Testbed tb = env::make_static_testbed(35.0);
  for (int t = 0; t < 50; ++t) {
    const env::Context c = tb.context();
    const Decision d = agent.select(c);
    agent.update(c, d.policy_index, tb.step(d.policy));
  }
  ASSERT_TRUE(agent.last_known_safe_index().has_value());
  const std::size_t known_safe = *agent.last_known_safe_index();

  // Operator tightens the SLA beyond anything the platform can deliver.
  agent.set_constraints({0.01, 0.99});

  Decision d{};
  EXPECT_NO_THROW(d = agent.select(tb.context()));
  EXPECT_TRUE(d.fell_back_to_s0);
  EXPECT_TRUE(d.used_last_safe);
  EXPECT_EQ(d.policy_index, known_safe);
  EXPECT_GE(agent.resilience_stats().last_safe_fallbacks, 1u);

  // The loop keeps running (watchdog may engage; nothing throws).
  for (int t = 0; t < 10; ++t) {
    const env::Context c = tb.context();
    Decision dd{};
    EXPECT_NO_THROW(dd = agent.select(c));
    EXPECT_NO_THROW(agent.update(c, dd.policy_index, tb.step(dd.policy)));
  }
}

TEST(LastSafeFallback, WithoutHistoryFallsBackToS0) {
  EdgeBol agent(small_grid(), resilient_config());
  env::Testbed tb = env::make_static_testbed(35.0);
  agent.set_constraints({0.01, 0.99});
  const Decision d = agent.select(tb.context());
  EXPECT_TRUE(d.fell_back_to_s0);
  EXPECT_FALSE(d.used_last_safe);
  EXPECT_EQ(d.policy_index, agent.grid().max_performance_index());
}

// ---- End-to-end chaos acceptance ----------------------------------------

fault::FaultPlan chaos_plan() {
  fault::FaultPlan plan;
  plan.seed = 77;
  plan.a1 = {0.10, 0.02, 0.02, 0.03};
  plan.e2 = {0.10, 0.03, 0.03, 0.04};
  plan.o1 = {0.10, 0.03, 0.03, 0.04};
  plan.telemetry.power_blank = 0.08;
  plan.telemetry.power_spike = 0.04;
  plan.telemetry.map_dropout = 0.05;
  plan.telemetry.delay_dropout = 0.05;
  plan.events.push_back(
      {fault::EnvEventKind::kGpuThermalThrottle, 120, 15, 0.6});
  return plan;
}

struct ChaosSummary {
  int periods = 0;
  double violation_rate = 0.0;  // core::violates on the noise-free outcome
  std::size_t final_safe_set_size = 0;
};

ChaosSummary run_managed(fault::FaultInjector* injector, int periods) {
  env::Testbed tb = env::make_static_testbed(35.0);
  oran::OranManagedTestbed managed(tb);
  if (injector != nullptr) managed.enable_fault_injection(injector);
  EdgeBolConfig cfg = resilient_config();
  EdgeBol agent(small_grid(), cfg);
  ChaosSummary s;
  int violations = 0;
  run_periods(managed, agent, periods, [&](const PeriodRecord<Decision>& r) {
    ++s.periods;
    violations += violates(cfg.constraints, *r.expected);
    s.final_safe_set_size = r.decision.safe_set_size;
  });
  s.violation_rate = static_cast<double>(violations) / periods;
  return s;
}

TEST(ChaosRun, SurvivesSeededFaultScheduleWithBoundedViolations) {
  const int periods = 300;
  const ChaosSummary clean = run_managed(nullptr, periods);

  fault::FaultInjector injector(chaos_plan());
  ChaosSummary faulted{};
  ASSERT_NO_THROW(faulted = run_managed(&injector, periods));

  EXPECT_EQ(faulted.periods, periods);
  // The schedule actually fired.
  EXPECT_GT(injector.stats().total_frame_faults(), 30u);
  EXPECT_GT(injector.stats().power_blanks + injector.stats().map_dropouts +
                injector.stats().delay_dropouts,
            0u);
  EXPECT_GT(injector.stats().event_periods, 0u);

  // Degraded, not broken: violation rate within 2x of the fault-free run
  // (plus a small absolute floor for the clean-run-is-perfect case).
  EXPECT_LE(faulted.violation_rate,
            2.0 * clean.violation_rate + 0.05);
  EXPECT_GT(faulted.final_safe_set_size, 1u);
}

TEST(ChaosRun, ZeroRatePlanIsBitIdenticalToNoInjector) {
  const int periods = 60;
  EdgeBolConfig cfg;  // resilience off: the pre-PR loop
  cfg.constraints = {0.4, 0.5};

  env::Testbed tb_a = env::make_static_testbed(35.0);
  oran::OranManagedTestbed managed_a(tb_a);
  EdgeBol agent_a(small_grid(), cfg);

  env::Testbed tb_b = env::make_static_testbed(35.0);
  oran::OranManagedTestbed managed_b(tb_b);
  EdgeBol agent_b(small_grid(), cfg);
  fault::FaultInjector idle_injector{fault::FaultPlan{.seed = 123}};
  managed_b.enable_fault_injection(&idle_injector);

  for (int t = 0; t < periods; ++t) {
    const env::Context ca = managed_a.context(), cb = managed_b.context();
    const Decision da = agent_a.select(ca), db = agent_b.select(cb);
    ASSERT_EQ(da.policy_index, db.policy_index) << "period " << t;
    const env::Measurement ma = managed_a.step(da.policy);
    const env::Measurement mb = managed_b.step(db.policy);
    ASSERT_EQ(ma.delay_s, mb.delay_s) << "period " << t;
    ASSERT_EQ(ma.map, mb.map) << "period " << t;
    ASSERT_EQ(ma.server_power_w, mb.server_power_w) << "period " << t;
    ASSERT_EQ(ma.bs_power_w, mb.bs_power_w) << "period " << t;
    agent_a.update(ca, da.policy_index, ma);
    agent_b.update(cb, db.policy_index, mb);
  }
  EXPECT_EQ(idle_injector.stats().total_frame_faults(), 0u);
}

TEST(ChaosRun, ResilienceLayerIsOffPathOnCleanRuns) {
  // With healthy feedback the hardened agent makes the same decisions as
  // the fragile one: the gate accepts everything, the watchdog never trips.
  const int periods = 60;
  EdgeBolConfig fragile;
  fragile.constraints = {0.4, 0.5};
  EdgeBolConfig hardened = fragile;
  hardened.resilience.enabled = true;

  env::Testbed tb_a = env::make_static_testbed(35.0);
  EdgeBol agent_a(small_grid(), fragile);
  env::Testbed tb_b = env::make_static_testbed(35.0);
  EdgeBol agent_b(small_grid(), hardened);

  for (int t = 0; t < periods; ++t) {
    const env::Context ca = tb_a.context(), cb = tb_b.context();
    const Decision da = agent_a.select(ca), db = agent_b.select(cb);
    ASSERT_EQ(da.policy_index, db.policy_index) << "period " << t;
    const env::Measurement ma = tb_a.step(da.policy);
    const env::Measurement mb = tb_b.step(db.policy);
    agent_a.update(ca, da.policy_index, ma);
    agent_b.update(cb, db.policy_index, mb);
  }
  EXPECT_EQ(agent_b.resilience_stats().kpi_rejected_total(), 0u);
  EXPECT_EQ(agent_b.resilience_stats().watchdog_trips, 0u);
}

TEST(ChaosRun, RecoversFromE2PartitionMidConvergence) {
  // Chaos-under-reconnect: a hard E2 partition opens mid-convergence, runs
  // for a dozen periods, then heals. While dark, radio policies stop
  // reaching the O-eNB and KPIs stop flowing back (BS power goes NaN for
  // the validation gate). After healing the loop must resume safe
  // operation within a bounded number of periods — the violation tally in
  // the post-recovery window must match a partition-free run of the same
  // seed, not drift because the agent learned from garbage.
  constexpr int kPeriods = 200;
  constexpr int kPartitionStart = 60;  // mid-convergence: safe set growing
  constexpr int kPartitionEnd = 72;
  constexpr int kRecoveryBudget = 5;  // periods allowed to settle post-heal

  env::Testbed tb = env::make_static_testbed(35.0);
  oran::OranManagedTestbed managed(tb);
  EdgeBol agent(small_grid(), resilient_config());
  std::vector<PeriodRecord<Decision>> hist;
  ASSERT_NO_THROW(run_periods(
      managed, agent, kPeriods, [&](const PeriodRecord<Decision>& rec) {
        hist.push_back(rec);
        if (rec.period == kPartitionStart - 1)
          managed.set_e2_partitioned(true);
        if (rec.period == kPartitionEnd - 1)
          managed.set_e2_partitioned(false);
      }));
  ASSERT_EQ(hist.size(), static_cast<std::size_t>(kPeriods));

  // The partition actually bit: every dark period lost both its policy
  // delivery and its KPI, and the NaN samples fed the gate (not the GP).
  constexpr std::size_t kDark = kPartitionEnd - kPartitionStart;
  EXPECT_GE(managed.policy_delivery_failures(), kDark);
  EXPECT_GE(managed.kpi_losses(), kDark);
  EXPECT_GE(agent.resilience_stats().kpi_rejected_nan, kDark);
  for (int t = kPartitionStart; t < kPartitionEnd; ++t) {
    EXPECT_TRUE(std::isnan(hist[t].measurement.bs_power_w))
        << "period " << t << " should have run dark";
  }

  // Bounded recovery: KPIs are finite again as soon as the hop heals, and
  // once the settling budget elapses the loop is back to safe operation —
  // zero constraint violations through the end of the run.
  for (int t = kPartitionEnd; t < kPeriods; ++t) {
    EXPECT_FALSE(std::isnan(hist[t].measurement.bs_power_w))
        << "period " << t << " should see KPIs again";
    if (t >= kPartitionEnd + kRecoveryBudget) {
      EXPECT_FALSE(violates(agent.constraints(), *hist[t].expected))
          << "constraint violated at period " << t << " after recovery";
    }
  }
  EXPECT_GT(hist.back().decision.safe_set_size, 1u);
}

}  // namespace
}  // namespace edgebol::core
