// Fig. 14 — EdgeBOL vs a DDPG contextual-bandit benchmark (after vrAIn [4])
// under runtime constraint changes:
//   t in [0, 1000):    d_max = 0.5 s, rho_min = 0.4
//   t in [1000, 2000): d_max = 0.4 s, rho_min = 0.6
//   t in [2000, 3000): d_max = 0.5 s, rho_min = 0.5
// Reports the evolution of cost, delay, mAP, and the per-window constraint
// violation magnitudes for both agents (delta1 = 1, delta2 = 8). The
// magnitudes are on the measured KPIs, as the paper plots them.
//
// Uses a 7-level control grid for EdgeBOL (3000-period GP memory); DDPG
// operates on the continuous policy box as in the paper.

#include <iostream>

#include "bench_common.hpp"

namespace {

using namespace edgebol;

struct WindowStats {
  RunningStats cost, delay, map, delay_violation, map_violation;
};

core::ConstraintSpec constraints_at(int t) {
  if (t < 1000) return {0.5, 0.4};
  if (t < 2000) return {0.4, 0.6};
  return {0.5, 0.5};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace edgebol;
  using namespace edgebol::bench;

  const int periods = argc > 1 ? std::max(300, std::atoi(argv[1])) : 3000;
  const int window = 100;

  banner(std::cout, "Fig. 14: EdgeBOL vs DDPG under constraint switches");
  std::cout << "(" << periods << " periods; constraint switches at t=1000 "
            << "and t=2000; values are per-" << window << "-period means)\n";

  const core::CostWeights weights{1.0, 8.0};

  env::GridSpec spec;
  spec.levels_per_dim = 7;

  // --- EdgeBOL ---
  env::TestbedConfig cfg_a;
  cfg_a.seed = 6001;
  env::Testbed tb_a = env::make_static_testbed(35.0, cfg_a);
  core::EdgeBolConfig bcfg;
  bcfg.weights = weights;
  bcfg.constraints = constraints_at(0);
  core::EdgeBol edgebol(env::ControlGrid{spec}, bcfg);

  // --- DDPG ---
  env::TestbedConfig cfg_b;
  cfg_b.seed = 6001;
  env::Testbed tb_b = env::make_static_testbed(35.0, cfg_b);
  baselines::DdpgConfig dcfg;
  baselines::DdpgAgent ddpg(spec, weights, constraints_at(0), dcfg, 77);

  std::vector<WindowStats> eb((periods + window - 1) / window);
  std::vector<WindowStats> dd(eb.size());

  // Each agent runs the three constraint phases on its own testbed; the two
  // runs share no state, so running them one after the other changes no
  // value.
  auto run = [&](auto& agent, env::Testbed& tb, std::vector<WindowStats>& ws) {
    int start = 0;
    for (const int end :
         {std::min(1000, periods), std::min(2000, periods), periods}) {
      if (end <= start) continue;
      const core::ConstraintSpec cs = constraints_at(start);
      if (start > 0) agent.set_constraints(cs);
      core::run_periods(tb, agent, end - start, [&](const auto& r) {
        const env::Measurement& m = r.measurement;
        WindowStats& w = ws[static_cast<std::size_t>((start + r.period) /
                                                     window)];
        w.cost.add(weights.cost(m.server_power_w, m.bs_power_w));
        w.delay.add(m.delay_s);
        w.map.add(m.map);
        w.delay_violation.add(std::max(0.0, m.delay_s - cs.d_max_s));
        w.map_violation.add(std::max(0.0, cs.map_min - m.map));
      });
      start = end;
    }
  };
  run(edgebol, tb_a, eb);
  run(ddpg, tb_b, dd);

  Table t({"t", "d_max", "rho_min", "EB_cost", "DDPG_cost", "EB_delay",
           "DDPG_delay", "EB_mAP", "DDPG_mAP", "EB_dviol", "DDPG_dviol",
           "EB_mviol", "DDPG_mviol"});
  for (std::size_t wi = 0; wi < eb.size(); ++wi) {
    const int ti = static_cast<int>(wi) * window;
    const core::ConstraintSpec cs = constraints_at(ti);
    t.add_row({fmt(ti, 0), fmt(cs.d_max_s, 2), fmt(cs.map_min, 2),
               fmt(eb[wi].cost.mean(), 1), fmt(dd[wi].cost.mean(), 1),
               fmt(eb[wi].delay.mean(), 3), fmt(dd[wi].delay.mean(), 3),
               fmt(eb[wi].map.mean(), 3), fmt(dd[wi].map.mean(), 3),
               fmt(eb[wi].delay_violation.mean(), 3),
               fmt(dd[wi].delay_violation.mean(), 3),
               fmt(eb[wi].map_violation.mean(), 3),
               fmt(dd[wi].map_violation.mean(), 3)});
  }
  t.print(std::cout);

  std::cout << "\nShape check (paper): EdgeBOL respects the constraints "
               "almost immediately — including right after each switch — "
               "because safe sets are recomputed from the non-parametric "
               "surrogates; the DDPG benchmark converges far more slowly "
               "and keeps violating after constraint changes (parametric "
               "models must re-learn).\n";
  return 0;
}
