// Fig. 11 — The control policies EdgeBOL converges to, per delta2 and
// constraint setting (the companion of Fig. 10): mean GPU speed, image
// resolution, airtime and MCS policy over the converged tail of each run.

#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace edgebol;
  using namespace edgebol::bench;

  const int periods = 180;
  const int reps = argc > 1 ? std::max(1, std::atoi(argv[1])) : 3;

  banner(std::cout, "Fig. 11: converged mean policies vs delta2");
  std::cout << "(" << reps << " repetitions; mean over last 50 periods; all "
            << "policies normalized to [0,1])\n";

  const env::ControlGrid grid;

  for (const ConstraintSetting& setting : fig10_constraint_settings()) {
    std::cout << "\n-- constraints: " << setting.label << " --\n";
    Table t({"delta2", "mean_gpu_speed", "mean_image_res", "mean_airtime",
             "mean_mcs_policy"});
    for (double delta2 : fig10_delta2_values()) {
      RunningStats gpu, res, air, mcs;
      for (int rep = 0; rep < reps; ++rep) {
        env::TestbedConfig tcfg;
        tcfg.seed = 3000 + static_cast<std::uint64_t>(rep);
        env::Testbed tb = env::make_static_testbed(35.0, tcfg);
        core::EdgeBolConfig cfg;
        cfg.weights = {1.0, delta2};
        cfg.constraints = setting.spec;
        core::EdgeBol agent(grid, cfg);
        std::vector<double> g, r, a, m;
        core::run_periods(tb, agent, periods, [&](const auto& rec) {
          const env::ControlPolicy& p = rec.policy;
          g.push_back(p.gpu_speed);
          r.push_back(p.resolution);
          a.push_back(p.airtime);
          m.push_back(static_cast<double>(p.mcs_cap) / ran::kMaxUlMcs);
        });
        gpu.add(tail_mean(g, 50));
        res.add(tail_mean(r, 50));
        air.add(tail_mean(a, 50));
        mcs.add(tail_mean(m, 50));
      }
      t.add_row({fmt(delta2, 0), fmt(gpu.mean(), 3), fmt(res.mean(), 3),
                 fmt(air.mean(), 3), fmt(mcs.mean(), 3)});
    }
    t.print(std::cout);
  }

  std::cout << "\nShape check (paper): under lax constraints, small delta2 "
               "-> low GPU speed compensated by high resolution/airtime; "
               "large delta2 -> low radio usage compensated by higher GPU "
               "speed and lower resolution. Under stringent constraints the "
               "policies barely move with delta2.\n";
  return 0;
}
