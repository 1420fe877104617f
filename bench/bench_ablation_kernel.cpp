// Ablation (§5, "Kernel selection") — the anisotropic Matérn-3/2 kernel the
// paper selects vs (i) an anisotropic RBF with the same length-scales and
// (ii) an *isotropic* Matérn (all length-scales equal), quantifying what
// the smoothness and anisotropy choices buy.

#include <iostream>

#include "bench_common.hpp"

namespace {

using namespace edgebol;

core::EdgeBolConfig variant_config(gp::KernelFamily family, bool isotropic) {
  core::EdgeBolConfig cfg;
  cfg.weights = {1.0, 8.0};
  cfg.constraints = {0.4, 0.5};
  auto tweak = [&](gp::GpHyperparams hp) {
    hp.family = family;
    if (isotropic) {
      double mean_ls = 0.0;
      for (double l : hp.lengthscales) mean_ls += l;
      mean_ls /= static_cast<double>(hp.lengthscales.size());
      hp.lengthscales.assign(hp.lengthscales.size(), mean_ls);
    }
    return hp;
  };
  cfg.cost_hp = tweak(core::default_cost_hyperparams());
  cfg.delay_hp = tweak(core::default_delay_hyperparams());
  cfg.map_hp = tweak(core::default_map_hyperparams());
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace edgebol;
  using namespace edgebol::bench;

  const int periods = 150;
  const int reps = argc > 1 ? std::max(1, std::atoi(argv[1])) : 3;

  banner(std::cout,
         "Ablation: anisotropic Matern-3/2 (paper) vs RBF vs isotropic");
  std::cout << "(" << reps << " repetitions; delta2 = 8; medians)\n";

  struct Variant {
    const char* label;
    gp::KernelFamily family;
    bool isotropic;
  };
  for (const Variant v :
       {Variant{"anisotropic Matern-3/2 (paper)", gp::KernelFamily::kMatern32,
                false},
        Variant{"anisotropic RBF", gp::KernelFamily::kRbf, false},
        Variant{"isotropic Matern-3/2", gp::KernelFamily::kMatern32, true}}) {
    std::vector<std::vector<double>> costs, delays;
    int viol = 0, considered = 0;
    for (int rep = 0; rep < reps; ++rep) {
      env::TestbedConfig tcfg;
      tcfg.seed = 7500 + static_cast<std::uint64_t>(rep);
      env::Testbed tb = env::make_static_testbed(35.0, tcfg);
      core::EdgeBol agent(env::ControlGrid{},
                          variant_config(v.family, v.isotropic));
      costs.emplace_back();
      delays.emplace_back();
      core::run_periods(tb, agent, periods, [&](const auto& r) {
        const env::Measurement& m = r.measurement;
        costs.back().push_back(
            agent.weights().cost(m.server_power_w, m.bs_power_w));
        delays.back().push_back(m.delay_s);
        if (r.period < 25) return;
        ++considered;
        viol += core::violates(agent.constraints(), *r.expected);
      });
    }
    const auto c50 = percentile_series(costs, 50);
    const auto d50 = percentile_series(delays, 50);

    std::cout << "\n-- " << v.label << " --\n";
    Table t({"t", "cost_med", "delay_med_s"});
    for (int ti : {0, 10, 25, 50, 100, 149}) {
      t.add_row({fmt(ti, 0), fmt(c50[ti], 1), fmt(d50[ti], 3)});
    }
    t.print(std::cout);
    std::cout << "constraint violations after t=25: " << viol << "/"
              << considered << "\n";
  }

  std::cout << "\nExpectation: the RBF's over-smooth prior is mildly "
               "overconfident near the safety boundary; discarding "
               "anisotropy hurts more — per-dimension length-scales encode "
               "that e.g. mAP varies only with resolution.\n";
  return 0;
}
