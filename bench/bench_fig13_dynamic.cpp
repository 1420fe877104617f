// Fig. 13 — Dynamic contexts: an untrained EdgeBOL deployed in a scenario
// whose mean SNR quickly sweeps between 5 and 38 dB. Reports the per-period
// average SNR, the safe-set size |S_t|, and the four selected policies
// (delta1 = 1, delta2 = 8, d_max = 0.6 s, rho_min = 0.5 — the delay bound
// is feasible across the whole SNR range as in the paper's setup).

#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace edgebol;
  using namespace edgebol::bench;

  const int periods = 150;
  const int reps = argc > 1 ? std::max(1, std::atoi(argv[1])) : 3;

  banner(std::cout, "Fig. 13: policy evolution under dynamic contexts");
  std::cout << "(" << reps << " repetitions; medians across repetitions)\n";

  std::vector<std::vector<double>> snr, safe, gpu, res, air, mcs;
  for (int rep = 0; rep < reps; ++rep) {
    env::TestbedConfig tcfg;
    tcfg.seed = 5000 + static_cast<std::uint64_t>(rep);
    env::Testbed tb = env::make_dynamic_testbed(5.0, 38.0, 6, 4, tcfg);
    core::EdgeBolConfig cfg;
    cfg.weights = {1.0, 8.0};
    cfg.constraints = {0.6, 0.5};
    core::EdgeBol agent(env::ControlGrid{}, cfg);
    for (auto* s : {&snr, &safe, &gpu, &res, &air, &mcs}) s->emplace_back();
    core::run_periods(tb, agent, periods, [&](const auto& r) {
      snr.back().push_back(r.measurement.mean_snr_db);
      safe.back().push_back(static_cast<double>(r.decision.safe_set_size));
      gpu.back().push_back(r.policy.gpu_speed);
      res.back().push_back(r.policy.resolution);
      air.back().push_back(r.policy.airtime);
      mcs.back().push_back(static_cast<double>(r.policy.mcs_cap) /
                           ran::kMaxUlMcs);
    });
  }

  Table t({"t", "avg_snr_dB", "safe_set_size", "gpu_speed", "image_res",
           "airtime", "mcs_policy"});
  const auto s50 = percentile_series(snr, 50), ss50 = percentile_series(safe, 50),
             g50 = percentile_series(gpu, 50), r50 = percentile_series(res, 50),
             a50 = percentile_series(air, 50), m50 = percentile_series(mcs, 50);
  for (int ti = 0; ti < periods; ti += 5) {
    t.add_row({fmt(ti, 0), fmt(s50[ti], 1), fmt(ss50[ti], 0), fmt(g50[ti], 2),
               fmt(r50[ti], 2), fmt(a50[ti], 2), fmt(m50[ti], 2)});
  }
  t.print(std::cout);

  std::cout << "\nShape check (paper): the safe set stabilizes within ~25 "
               "periods and then fluctuates with the context; after ~3 sweep "
               "cycles EdgeBOL picks sensible policies even for contexts it "
               "has not seen, because GP correlations transfer knowledge "
               "across similar contexts.\n";
  return 0;
}
