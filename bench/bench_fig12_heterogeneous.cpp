// Fig. 12 — Empirical optimality gap with multiple heterogeneous users.
// Scenarios with N in {1..6} users: user 1 at 30 dB mean SNR, every
// additional user 20% lower. d_max = 2 s, rho_min = 0.6 (feasible even with
// 6 users), delta1 = 1, delta2 in {1, 2, 4, 8}. EdgeBOL's converged cost is
// compared with the offline exhaustive-search optimum, and the constraint
// satisfaction probability is reported (the paper quotes ~2% gap, 0.98):
// on the chosen policy's noise-free outcome, and, since the paper's 0.98
// was measured, the same rule on the noisy measurement beside it.

#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace edgebol;
  using namespace edgebol::bench;

  const int periods = 150;
  const int max_users = argc > 1 ? std::max(1, std::atoi(argv[1])) : 6;

  banner(std::cout, "Fig. 12: EdgeBOL vs optimal with heterogeneous users");

  const core::ConstraintSpec constraints{2.0, 0.6};
  const env::ControlGrid grid;

  for (double delta2 : {1.0, 2.0, 4.0, 8.0}) {
    std::cout << "\n-- delta2 = " << fmt(delta2, 0) << " --\n";
    Table t({"n_users", "edgebol_cost", "optimal_cost", "gap_pct",
             "constraint_sat_prob", "measured_sat_prob"});
    for (int n = 1; n <= max_users; ++n) {
      const core::CostWeights w{1.0, delta2};

      env::TestbedConfig tcfg;
      tcfg.seed = 4000 + static_cast<std::uint64_t>(n);
      env::Testbed tb =
          env::make_heterogeneous_testbed(static_cast<std::size_t>(n), 30.0,
                                          0.20, tcfg);
      core::EdgeBolConfig cfg;
      cfg.weights = w;
      cfg.constraints = constraints;
      core::EdgeBol agent(grid, cfg);
      std::vector<double> cost;
      int ok = 0, ok_measured = 0, considered = 0;
      core::run_periods(tb, agent, periods, [&](const auto& r) {
        const env::Measurement& m = r.measurement;
        cost.push_back(w.cost(m.server_power_w, m.bs_power_w));
        if (r.period < 25) return;
        ++considered;
        ok += !core::violates(constraints, *r.expected);
        ok_measured += !core::violates(constraints, m);
      });

      const auto oracle = baselines::exhaustive_oracle(tb, grid, w,
                                                       constraints);
      const double converged = tail_mean(cost, 40);
      t.add_row({fmt(n, 0), fmt(converged, 1), fmt(oracle.cost, 1),
                 fmt(100.0 * (converged / oracle.cost - 1.0), 1),
                 fmt(static_cast<double>(ok) / considered, 3),
                 fmt(static_cast<double>(ok_measured) / considered, 3)});
    }
    t.print(std::cout);
  }

  std::cout << "\nShape check (paper): EdgeBOL stays within a few percent of "
               "the oracle for every N and delta2 despite the aggregated-"
               "statistics context; total cost grows with the number of "
               "users (weaker channels need more resources).\n";
  return 0;
}
