// Extension experiment (§4.3) — the dual formulation: minimize service
// delay subject to power budgets (solar/PoE vBS, capped edge compute) and a
// minimum precision, instead of minimizing energy under a delay SLA. Runs
// PowerBudgetBol across a sweep of server-power budgets and reports the
// achieved delay frontier, plus a runtime budget cut (battery running low).
// A budget violation is judged as core::violates judges the SLA: on the
// chosen policy's noise-free outcome, with no slack.

#include <iostream>

#include "bench_common.hpp"

#include "core/formulations.hpp"

int main(int argc, char** argv) {
  using namespace edgebol;
  using namespace edgebol::bench;

  const int periods = argc > 1 ? std::max(60, std::atoi(argv[1])) : 150;

  banner(std::cout, "Extension (4.3): min-delay under power budgets");
  std::cout << "(rho_min = 0.5, BS budget 5.6 W; sweep of server budgets)\n\n";

  env::GridSpec spec;
  spec.levels_per_dim = 7;
  const env::ControlGrid grid(spec);

  Table t({"server_budget_W", "mean_delay_s_tail", "server_power_tail_W",
           "bs_power_tail_W", "mAP_tail", "budget_viol_rate"});

  for (double budget : {100.0, 115.0, 130.0, 150.0, 175.0}) {
    core::PowerBudgetConfig cfg;
    cfg.server_power_budget_w = budget;
    cfg.bs_power_budget_w = 5.6;
    cfg.map_min = 0.5;
    core::PowerBudgetBol agent(grid, cfg);

    env::TestbedConfig tcfg;
    tcfg.seed = 8200;
    env::Testbed tb = env::make_static_testbed(35.0, tcfg);

    RunningStats delay, ps, pb, map;
    int viol = 0, n = 0;
    core::run_periods(tb, agent, periods, [&](const auto& r) {
      if (r.period < periods - 50) return;
      const env::Measurement& m = r.measurement;
      const env::Measurement& e = *r.expected;
      ++n;
      delay.add(m.delay_s);
      ps.add(m.server_power_w);
      pb.add(m.bs_power_w);
      map.add(m.map);
      viol += !(e.server_power_w <= budget && e.bs_power_w <= 5.6 &&
                e.map >= 0.5);
    });
    t.add_row({fmt(budget, 0), fmt(delay.mean(), 3), fmt(ps.mean(), 1),
               fmt(pb.mean(), 2), fmt(map.mean(), 3),
               fmt(static_cast<double>(viol) / n, 3)});
  }
  t.print(std::cout);

  // Runtime budget cut: the battery is draining, halve the server budget.
  std::cout << "\n-- runtime budget cut (150 W -> 105 W at t=" << periods
            << ") --\n";
  core::PowerBudgetConfig cfg;
  cfg.server_power_budget_w = 150.0;
  cfg.bs_power_budget_w = 5.6;
  cfg.map_min = 0.5;
  core::PowerBudgetBol agent(grid, cfg);
  env::TestbedConfig tcfg;
  tcfg.seed = 8300;
  env::Testbed tb = env::make_static_testbed(35.0, tcfg);

  Table t2({"phase", "mean_delay_s", "mean_server_power_W", "viol_rate"});
  for (const auto& [label, budget, len] :
       {std::tuple{"budget 150 W", 150.0, periods},
        std::tuple{"budget 105 W", 105.0, periods}}) {
    agent.set_server_power_budget(budget);
    RunningStats delay, power;
    int viol = 0;
    core::run_periods(tb, agent, len, [&](const auto& r) {
      if (r.period < len / 3) return;
      delay.add(r.measurement.delay_s);
      power.add(r.measurement.server_power_w);
      viol += !(r.expected->server_power_w <= budget);
    });
    t2.add_row({label, fmt(delay.mean(), 3), fmt(power.mean(), 1),
                fmt(static_cast<double>(viol) / (len - len / 3), 3)});
  }
  t2.print(std::cout);

  std::cout << "\nShape check: tighter budgets force slower (higher-delay) "
               "operating points — the frontier the paper's flexibility "
               "claim implies; the runtime cut is honored within a few "
               "periods because the surrogates were already learned.\n";
  return 0;
}
