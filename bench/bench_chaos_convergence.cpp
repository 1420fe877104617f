// Chaos convergence: the EdgeBOL loop with the resilience layer on, run
// through the O-RAN control plane twice — once fault-free and once under a
// seeded FaultPlan (frame loss/delay/duplication/corruption on every hop,
// blanked and spiked telemetry, and a mid-run GPU thermal-throttle event).
// Prints both regret/violation trajectories plus the injector's and the
// agent's resilience tallies. The paper's loop assumes clean feedback; this
// bench quantifies how little the hardened loop loses under realistic
// hostility, and exits 1 when the faulted run fails the printed shape
// check (usage: bench_chaos_convergence [periods]). Violations are
// core::violates on the chosen policy's noise-free outcome (no slack): the
// gate reads whether corrupted feedback led the learner to an unsafe
// choice, with the same thresholds it had on the measured, slackened rate.

#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace edgebol;

struct ChaosTrace {
  std::vector<double> cost;          // NaN when the period's KPI was lost
  std::vector<int> violations;       // cumulative, on the noise-free outcome
  double tail_mean_cost = 0.0;       // last quarter, lost KPIs left out
  double violation_rate = 0.0;
  std::size_t final_safe_set = 0;
  core::ResilienceStats resilience{};
  std::size_t delivery_failures = 0;
  std::size_t kpi_losses = 0;
};

ChaosTrace run(fault::FaultInjector* injector, int periods) {
  env::Testbed tb = env::make_static_testbed(35.0);
  oran::OranManagedTestbed managed(tb);
  if (injector != nullptr) managed.enable_fault_injection(injector);

  core::EdgeBolConfig cfg;
  cfg.weights = {1.0, 8.0};
  cfg.constraints = {0.4, 0.5};
  cfg.resilience.enabled = true;
  core::EdgeBol agent(env::ControlGrid{}, cfg);

  ChaosTrace trace;
  int violations = 0;
  RunningStats tail;
  const int tail_start = periods - std::max(1, periods / 4);
  core::run_periods(managed, agent, periods, [&](const auto& r) {
    const env::Measurement& m = r.measurement;
    const double cost = agent.weights().cost(m.server_power_w, m.bs_power_w);
    violations += core::violates(agent.constraints(), *r.expected);
    trace.cost.push_back(cost);
    trace.violations.push_back(violations);
    if (r.period >= tail_start && std::isfinite(cost)) tail.add(cost);
    trace.final_safe_set = r.decision.safe_set_size;
  });
  trace.tail_mean_cost = tail.mean();
  trace.violation_rate = static_cast<double>(violations) / periods;
  trace.resilience = agent.resilience_stats();
  trace.delivery_failures = managed.policy_delivery_failures();
  trace.kpi_losses = managed.kpi_losses();
  return trace;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace edgebol;
  using namespace edgebol::bench;

  const int periods = argc > 1 ? std::max(10, std::atoi(argv[1])) : 300;

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
      {fault::EnvEventKind::kGpuThermalThrottle, periods / 2, 15, 0.6});

  banner(std::cout, "Chaos convergence: faults off vs on (same agent config)");
  std::cout << "(" << periods << " periods; >=10% frame loss on every hop, "
            << "KPI dropout, GPU throttle at t=" << periods / 2 << ")\n\n";

  const ChaosTrace clean = run(nullptr, periods);
  fault::FaultInjector injector(plan);
  const ChaosTrace faulted = run(&injector, periods);

  Table t({"t", "cost_clean", "cost_faulted", "cumviol_clean",
           "cumviol_faulted"});
  for (int i : {0, 2, 5, 10, 15, 20, 25, 35, 50, 75, 100, 150, 200, 250,
                periods - 1}) {
    if (i >= periods) continue;
    t.add_row({fmt(i, 0), fmt(clean.cost[i], 1),
               std::isfinite(faulted.cost[i]) ? fmt(faulted.cost[i], 1)
                                              : "kpi-lost",
               fmt(clean.violations[i], 0), fmt(faulted.violations[i], 0)});
  }
  t.print(std::cout);

  std::cout << "\n-- run summaries --\n";
  Table s({"run", "tail_mean_cost", "violation_rate", "final_safe_set"});
  for (const auto& [name, run] : {std::pair{"clean", &clean},
                                  std::pair{"faulted", &faulted}}) {
    s.add_row({name, fmt(run->tail_mean_cost, 1), fmt(run->violation_rate, 3),
               fmt(static_cast<double>(run->final_safe_set), 0)});
  }
  s.print(std::cout);

  const fault::FaultStats& fs = injector.stats();
  std::cout << "\n-- injected faults --\n"
            << "frames dropped/delayed/duplicated/corrupted: "
            << fs.frames_dropped << "/" << fs.frames_delayed << "/"
            << fs.frames_duplicated << "/" << fs.frames_corrupted << "\n"
            << "power blanks/spikes: " << fs.power_blanks << "/"
            << fs.power_spikes << ", mAP dropouts: " << fs.map_dropouts
            << ", delay dropouts: " << fs.delay_dropouts
            << ", perturbed periods: " << fs.event_periods << "\n";

  const core::ResilienceStats& rs = faulted.resilience;
  std::cout << "\n-- resilience response (faulted run) --\n"
            << "KPIs rejected (nan/range/outlier): " << rs.kpi_rejected_nan
            << "/" << rs.kpi_rejected_range << "/" << rs.kpi_rejected_outlier
            << "\n"
            << "policy delivery failures: " << faulted.delivery_failures
            << ", KPI losses: " << faulted.kpi_losses
            << ", GP update failures: " << rs.gp_update_failures << "\n"
            << "watchdog trips: " << rs.watchdog_trips
            << " (hold selects: " << rs.watchdog_hold_selects
            << "), last-safe fallbacks: " << rs.last_safe_fallbacks << "\n";

  // Shape check, enforced: the faulted run keeps most of its KPIs, its
  // violation rate within 2x of the clean run's (+0.01), and a finite,
  // positive tail cost within 2x of the clean run's. A tail cost of 0
  // means no tail period kept a KPI.
  const double tail = faulted.tail_mean_cost;
  const bool kpis_ok =
      faulted.kpi_losses <= static_cast<std::size_t>(periods) / 2;
  const bool violations_ok =
      faulted.violation_rate <= 2.0 * clean.violation_rate + 0.01;
  const bool cost_ok = std::isfinite(tail) && tail > 0.0 &&
                       tail <= 2.0 * clean.tail_mean_cost;
  const bool pass = kpis_ok && violations_ok && cost_ok;
  std::cout << "\nShape check: " << (pass ? "PASS" : "FAIL")
            << " (faulted run: KPI losses <= periods/2 "
            << (kpis_ok ? "ok" : "FAILED")
            << ", violation rate <= 2x clean + 0.01 "
            << (violations_ok ? "ok" : "FAILED")
            << ", tail cost finite, > 0 and <= 2x clean "
            << (cost_ok ? "ok" : "FAILED") << ")\n";
  return pass ? 0 : 1;
}
