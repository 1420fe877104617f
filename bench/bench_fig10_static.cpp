// Fig. 10 — Static scenarios: converged BS power, server power and
// normalized cost as a function of delta2 for three constraint settings,
// compared against the offline exhaustive-search oracle (the paper's dashed
// lines). delta1 = 1 mu/W throughout; the normalized cost is computed
// independently per delta2 (relative to the per-delta2 maximum-performance
// cost) so values are comparable across delta2.

#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace edgebol;
  using namespace edgebol::bench;

  const int periods = 180;
  const int reps = argc > 1 ? std::max(1, std::atoi(argv[1])) : 3;

  banner(std::cout,
         "Fig. 10: converged powers & normalized cost vs delta2 (+oracle)");
  std::cout << "(" << reps << " repetitions; converged = mean of last 50 "
            << "periods; oracle via exhaustive search)\n";

  const env::ControlGrid grid;

  for (const ConstraintSetting& setting : fig10_constraint_settings()) {
    std::cout << "\n-- constraints: " << setting.label << " --\n";
    Table t({"delta2", "bs_power_W", "server_power_W", "cost", "norm_cost",
             "oracle_cost", "oracle_norm_cost", "gap_pct"});

    for (double delta2 : fig10_delta2_values()) {
      const core::CostWeights w{1.0, delta2};

      // Reference for normalization: the max-performance corner's cost.
      env::Testbed ref = env::make_static_testbed(35.0);
      const env::Measurement corner =
          ref.expected(grid.policy(grid.max_performance_index()));
      const double corner_cost =
          w.cost(corner.server_power_w, corner.bs_power_w);

      RunningStats bs, srv, cost;
      for (int rep = 0; rep < reps; ++rep) {
        env::TestbedConfig tcfg;
        tcfg.seed = 2000 + static_cast<std::uint64_t>(rep);
        env::Testbed tb = env::make_static_testbed(35.0, tcfg);
        core::EdgeBolConfig cfg;
        cfg.weights = w;
        cfg.constraints = setting.spec;
        core::EdgeBol agent(grid, cfg);
        std::vector<double> b, s, c;
        core::run_periods(tb, agent, periods, [&](const auto& r) {
          const env::Measurement& m = r.measurement;
          b.push_back(m.bs_power_w);
          s.push_back(m.server_power_w);
          c.push_back(w.cost(m.server_power_w, m.bs_power_w));
        });
        bs.add(tail_mean(b, 50));
        srv.add(tail_mean(s, 50));
        cost.add(tail_mean(c, 50));
      }

      env::Testbed oracle_tb = env::make_static_testbed(35.0);
      const auto oracle =
          baselines::exhaustive_oracle(oracle_tb, grid, w, setting.spec);

      t.add_row({fmt(delta2, 0), fmt(bs.mean(), 2), fmt(srv.mean(), 1),
                 fmt(cost.mean(), 1), fmt(cost.mean() / corner_cost, 3),
                 fmt(oracle.cost, 1), fmt(oracle.cost / corner_cost, 3),
                 fmt(100.0 * (cost.mean() / oracle.cost - 1.0), 1)});
    }
    t.print(std::cout);
  }

  std::cout << "\nShape check (paper): higher delta2 shifts consumption from "
               "the BS to the server; EdgeBOL tracks the oracle closely; "
               "stringent constraints pay the highest normalized cost and "
               "the gap across settings shrinks as delta2 grows.\n";
  return 0;
}
