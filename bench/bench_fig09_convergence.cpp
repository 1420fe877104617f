// Fig. 9 — Convergence evaluation: evolution of the cost u_t, mAP rho_t,
// service delay d_t, BS power p^b_t and server power p^s_t over time for
// delta2 in {1, 2, 4, 8, 16, 32, 64}. Steady channel (35 dB mean SNR),
// delta1 = 1 mu/W, rho_min = 0.5, d_max = 0.4 s. Lines are medians over
// independent repetitions, with the 10th/90th percentiles as in the paper.

#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace edgebol;
  using namespace edgebol::bench;

  const int periods = 150;
  const int reps = argc > 1 ? std::max(1, std::atoi(argv[1])) : 5;

  banner(std::cout, "Fig. 9: convergence over time per delta2");
  std::cout << "(" << reps << " repetitions; median [p10, p90])\n";

  for (double delta2 : fig10_delta2_values()) {
    std::vector<std::vector<double>> cost, map, delay, pbs, psrv;
    for (int rep = 0; rep < reps; ++rep) {
      env::TestbedConfig tcfg;
      tcfg.seed = 1000 + static_cast<std::uint64_t>(rep);
      env::Testbed tb = env::make_static_testbed(35.0, tcfg);
      core::EdgeBolConfig cfg;
      cfg.weights = {1.0, delta2};
      cfg.constraints = {0.4, 0.5};
      core::EdgeBol agent(env::ControlGrid{}, cfg);
      for (auto* s : {&cost, &map, &delay, &pbs, &psrv}) s->emplace_back();
      core::run_periods(tb, agent, periods, [&](const auto& r) {
        const env::Measurement& m = r.measurement;
        cost.back().push_back(
            cfg.weights.cost(m.server_power_w, m.bs_power_w));
        map.back().push_back(m.map);
        delay.back().push_back(m.delay_s);
        pbs.back().push_back(m.bs_power_w);
        psrv.back().push_back(m.server_power_w);
      });
    }

    std::cout << "\n-- delta2 = " << fmt(delta2, 0) << " --\n";
    Table t({"t", "cost_med", "cost_p10", "cost_p90", "mAP_med", "delay_med_s",
             "bs_power_med_W", "server_power_med_W"});
    const auto c50 = percentile_series(cost, 50), c10 = percentile_series(cost, 10),
               c90 = percentile_series(cost, 90), m50 = percentile_series(map, 50),
               d50 = percentile_series(delay, 50), b50 = percentile_series(pbs, 50),
               s50 = percentile_series(psrv, 50);
    for (int t_i : {0, 2, 5, 10, 15, 20, 25, 35, 50, 75, 100, 125, 149}) {
      t.add_row({fmt(t_i, 0), fmt(c50[t_i], 1), fmt(c10[t_i], 1),
                 fmt(c90[t_i], 1), fmt(m50[t_i], 3), fmt(d50[t_i], 3),
                 fmt(b50[t_i], 2), fmt(s50[t_i], 1)});
    }
    t.print(std::cout);
  }

  std::cout << "\nShape check (paper): cost converges within ~25 periods for "
               "every delta2; both constraints hold upon convergence with "
               "high probability; larger delta2 -> larger cost.\n";
  return 0;
}
