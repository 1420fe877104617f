// Runtime SLA changes (§5 "Practical Issues" / §6.5): the operator relaxes
// or tightens the service constraints while the system runs. Because the
// safe set is recomputed from the non-parametric surrogates every period,
// EdgeBOL adapts in essentially one period — no re-learning. The example
// also drives the constraints infeasible on purpose to show the S0
// fallback.
//
//   $ ./constraint_runtime_change

#include <iostream>

#include <edgebol/edgebol.hpp>

namespace {

using namespace edgebol;

void run_phase(const char* label, core::EdgeBol& agent, env::Testbed& tb,
               int periods, Table& table) {
  RunningStats delay, map, cost;
  std::size_t last_safe = 0;
  bool fell_back = false;
  core::run_periods(tb, agent, periods, [&](const auto& r) {
    const env::Measurement& m = r.measurement;
    delay.add(m.delay_s);
    map.add(m.map);
    cost.add(agent.weights().cost(m.server_power_w, m.bs_power_w));
    last_safe = r.decision.safe_set_size;
    fell_back = r.decision.fell_back_to_s0;
  });
  table.add_row({label, fmt(agent.constraints().d_max_s, 2),
                 fmt(agent.constraints().map_min, 2), fmt(cost.mean(), 1),
                 fmt(delay.mean(), 3), fmt(map.mean(), 3),
                 fmt(static_cast<double>(last_safe), 0),
                 fell_back ? "yes" : "no"});
}

}  // namespace

int main() {
  using namespace edgebol;

  env::Testbed tb = env::make_static_testbed(35.0);
  core::EdgeBolConfig cfg;
  cfg.weights = {1.0, 8.0};
  cfg.constraints = {0.5, 0.4};
  core::EdgeBol agent(env::ControlGrid{}, cfg);

  Table t({"phase", "d_max_s", "rho_min", "mean_cost", "mean_delay_s",
           "mean_mAP", "safe_set", "s0_fallback"});

  run_phase("1. lax SLA (learning)", agent, tb, 60, t);

  agent.set_constraints({0.35, 0.6});
  run_phase("2. tightened SLA", agent, tb, 40, t);

  agent.set_constraints({0.6, 0.45});
  run_phase("3. relaxed SLA", agent, tb, 40, t);

  // Deliberately impossible: delay below the physical floor.
  agent.set_constraints({0.05, 0.74});
  run_phase("4. infeasible SLA", agent, tb, 20, t);

  agent.set_constraints({0.5, 0.5});
  run_phase("5. feasible again", agent, tb, 40, t);

  t.print(std::cout);

  std::cout << "\nPhases 2/3/5 adapt within a period of the switch (the GPs "
               "were learned once); phase 4 falls back to the initial safe "
               "set S0 — the max-performance policies — exactly as §5 "
               "prescribes for infeasible settings.\n";
  return 0;
}
