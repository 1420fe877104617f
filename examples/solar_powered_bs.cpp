// Solar-powered small cell: the PoE/solar scenario of §4.3.
//
// When the vBS runs from a solar-charged battery, every BS watt is scarce:
// delta2 >> delta1. This example compares three operating strategies over
// the same afternoon:
//   1. static max-performance configuration (what a non-adaptive slice does)
//   2. EdgeBOL with the battery-aware cost (delta2 = 64)
//   3. the offline oracle (unattainable lower bound)
// and reports the BS energy each would draw from the battery.
//
//   $ ./solar_powered_bs

#include <iostream>

#include <edgebol/edgebol.hpp>

int main() {
  using namespace edgebol;

  const int periods = 150;
  const double period_s = 2.0;  // one non-RT RIC decision every 2 s
  const core::CostWeights weights{1.0, 64.0};
  const core::ConstraintSpec sla{0.5, 0.5};
  const env::ControlGrid grid;

  std::cout << "Solar-powered vBS (delta2 = 64), SLA: delay <= 0.5 s, "
               "mAP >= 0.5\n\n";

  // Strategy 1: static maximum performance.
  env::TestbedConfig cfg1;
  cfg1.seed = 11;
  env::Testbed tb1 = env::make_static_testbed(32.0, cfg1);
  RunningStats static_bs, static_cost;
  const env::ControlPolicy max_perf =
      grid.policy(grid.max_performance_index());
  for (int t = 0; t < periods; ++t) {
    const env::Measurement m = tb1.step(max_perf);
    static_bs.add(m.bs_power_w);
    static_cost.add(weights.cost(m.server_power_w, m.bs_power_w));
  }

  // Strategy 2: EdgeBOL.
  env::TestbedConfig cfg2;
  cfg2.seed = 11;
  env::Testbed tb2 = env::make_static_testbed(32.0, cfg2);
  core::EdgeBolConfig bcfg;
  bcfg.weights = weights;
  bcfg.constraints = sla;
  core::EdgeBol agent(grid, bcfg);
  RunningStats learned_bs, learned_cost;
  int violations = 0;  // on the chosen policy's noise-free outcome
  core::run_periods(tb2, agent, periods, [&](const auto& r) {
    if (r.period < 30) return;  // steady state
    const env::Measurement& m = r.measurement;
    learned_bs.add(m.bs_power_w);
    learned_cost.add(weights.cost(m.server_power_w, m.bs_power_w));
    violations += core::violates(sla, *r.expected);
  });

  // Strategy 3: oracle.
  env::Testbed tb3 = env::make_static_testbed(32.0);
  const auto oracle = baselines::exhaustive_oracle(tb3, grid, weights, sla);

  const double hours = periods * period_s / 3600.0;
  auto battery_wh = [&](double watts) { return watts * hours; };

  Table t({"strategy", "bs_power_W", "battery_Wh_per_run", "cost_mu",
           "sla_violation_rate"});
  t.add_row({"static max-perf", fmt(static_bs.mean(), 2),
             fmt(battery_wh(static_bs.mean()), 4), fmt(static_cost.mean(), 1),
             "0.000"});
  t.add_row({"EdgeBOL", fmt(learned_bs.mean(), 2),
             fmt(battery_wh(learned_bs.mean()), 4),
             fmt(learned_cost.mean(), 1),
             fmt(static_cast<double>(violations) / (periods - 30), 3)});
  t.add_row({"oracle (offline)", fmt(oracle.expected.bs_power_w, 2),
             fmt(battery_wh(oracle.expected.bs_power_w), 4),
             fmt(oracle.cost, 1), "0.000"});
  t.print(std::cout);

  const double saving =
      100.0 * (1.0 - learned_bs.mean() / static_bs.mean());
  std::cout << "\nEdgeBOL cuts the battery draw by " << fmt(saving, 1)
            << "% vs the static configuration while keeping the SLA.\n";
  return 0;
}
