// Ablation (§4.4 / §6.4) — the value of the context. EdgeBOL conditions on
// c_t = [n_users, mean CQI, var CQI]; a context-blind variant feeds the
// agent a frozen context while the channel actually sweeps 5-38 dB. Without
// contextual conditioning the surrogates average incompatible channel
// states, so the blind agent keeps violating the delay constraint in poor
// conditions and/or wastes energy in good ones.

#include <iostream>

#include "bench_common.hpp"

namespace {

using namespace edgebol;

// The context-blind variant's environment: the testbed, with the context
// frozen at the one observed before the first period.
struct FrozenContext {
  env::Testbed& tb;
  env::Context frozen = tb.context();

  env::Context context() const { return frozen; }
  env::Measurement step(const env::ControlPolicy& p) { return tb.step(p); }
  env::Measurement expected(const env::ControlPolicy& p) const {
    return tb.expected(p);
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace edgebol;
  using namespace edgebol::bench;

  const int periods = 150;
  const int reps = argc > 1 ? std::max(1, std::atoi(argv[1])) : 3;

  banner(std::cout, "Ablation: contextual vs context-blind EdgeBOL");
  std::cout << "(" << reps << " repetitions; dynamic 5-38 dB scenario, "
            << "delta2 = 8, d_max = 0.6 s, rho_min = 0.5)\n\n";

  Table t({"variant", "mean_cost_t>=50", "violation_rate_t>=50"});

  for (const bool blind : {false, true}) {
    RunningStats cost, viol;
    for (int rep = 0; rep < reps; ++rep) {
      env::TestbedConfig tcfg;
      tcfg.seed = 7900 + static_cast<std::uint64_t>(rep);
      env::Testbed tb = env::make_dynamic_testbed(5.0, 38.0, 6, 4, tcfg);
      core::EdgeBolConfig cfg;
      cfg.weights = {1.0, 8.0};
      cfg.constraints = {0.6, 0.5};
      core::EdgeBol agent(env::ControlGrid{}, cfg);

      int v = 0, n = 0;
      RunningStats c_run;
      auto on_period = [&](const auto& r) {
        if (r.period < 50) return;
        const env::Measurement& m = r.measurement;
        ++n;
        v += core::violates(cfg.constraints, *r.expected);
        c_run.add(agent.weights().cost(m.server_power_w, m.bs_power_w));
      };
      if (blind) {
        FrozenContext frozen{tb};
        core::run_periods(frozen, agent, periods, on_period);
      } else {
        core::run_periods(tb, agent, periods, on_period);
      }
      cost.add(c_run.mean());
      viol.add(static_cast<double>(v) / n);
    }
    t.add_row({blind ? "context-blind" : "contextual (EdgeBOL)",
               fmt(cost.mean(), 1), fmt(viol.mean(), 3)});
  }
  t.print(std::cout);

  std::cout << "\nExpectation: the contextual agent adapts its safe set to "
               "the channel and keeps violations low across the sweep; the "
               "blind agent either violates in poor channels or overpays in "
               "good ones.\n";
  return 0;
}
