// Ablation (§5, "Function approximator") — why a GP and not a linear
// contextual bandit? The paper notes that most contextual bandit algorithms
// assume a linear context-control -> reward relationship, while the
// measured surfaces are non-linear. This bench runs EdgeBOL, LinUCB (linear
// ridge + optimism), epsilon-greedy (tabular) and random search on the same
// scenario and reports converged cost and constraint violations.

#include <iostream>

#include "bench_common.hpp"

#include "baselines/linucb.hpp"

int main(int argc, char** argv) {
  using namespace edgebol;
  using namespace edgebol::bench;

  const int periods = argc > 1 ? std::max(60, std::atoi(argv[1])) : 200;
  const int reps = argc > 2 ? std::max(1, std::atoi(argv[2])) : 3;

  banner(std::cout, "Ablation: GP (EdgeBOL) vs linear vs model-free bandits");
  std::cout << "(" << reps << " reps x " << periods
            << " periods; delta2 = 8, d_max = 0.4 s, rho_min = 0.5)\n\n";

  const core::CostWeights weights{1.0, 8.0};
  const core::ConstraintSpec sla{0.4, 0.5};
  env::GridSpec spec;
  spec.levels_per_dim = 6;  // tabular baselines need a tractable arm count
  const env::ControlGrid grid(spec);

  Table t({"agent", "converged_cost", "violation_rate", "oracle_gap_pct"});

  env::Testbed oracle_tb = env::make_static_testbed(35.0);
  const auto oracle = baselines::exhaustive_oracle(oracle_tb, grid, weights,
                                                   sla);

  // Every agent runs the same seeds; cost and violations are averaged over
  // the last 50 periods of each run.
  auto evaluate = [&](const char* name, auto make_agent) {
    RunningStats cost, viol;
    for (int rep = 0; rep < reps; ++rep) {
      env::TestbedConfig tcfg;
      tcfg.seed = 8500 + static_cast<std::uint64_t>(rep);
      env::Testbed tb = env::make_static_testbed(35.0, tcfg);
      auto agent = make_agent(static_cast<std::uint64_t>(rep));
      int v = 0;
      RunningStats c_run;
      core::run_periods(tb, agent, periods, [&](const auto& r) {
        if (r.period < periods - 50) return;
        const env::Measurement& m = r.measurement;
        c_run.add(weights.cost(m.server_power_w, m.bs_power_w));
        v += core::violates(sla, *r.expected);
      });
      cost.add(c_run.mean());
      viol.add(static_cast<double>(v) / 50.0);
    }
    t.add_row({name, fmt(cost.mean(), 1), fmt(viol.mean(), 3),
               fmt(100.0 * (cost.mean() / oracle.cost - 1.0), 1)});
  };

  evaluate("EdgeBOL (GP)", [&](std::uint64_t) {
    core::EdgeBolConfig cfg;
    cfg.weights = weights;
    cfg.constraints = sla;
    return core::EdgeBol(grid, cfg);
  });
  evaluate("LinUCB (linear)", [&](std::uint64_t) {
    return baselines::LinUcbAgent(grid, weights, sla, {});
  });
  evaluate("epsilon-greedy (tabular)", [&](std::uint64_t rep) {
    return baselines::EGreedyAgent(grid, weights, sla, {}, 900 + rep);
  });
  evaluate("random search", [&](std::uint64_t rep) {
    return baselines::RandomSearchAgent(grid, weights, sla, 700 + rep);
  });

  t.print(std::cout);

  std::cout << "\nExpectation: the GP agent dominates on both axes; the "
               "linear model cannot represent the bent cost surface (it "
               "lands on a mediocre corner and/or violates); tabular/random "
               "agents need orders of magnitude more samples than " << periods
            << " periods for a " << grid.size() << "-arm space.\n";
  return 0;
}
