// Quickstart: run EdgeBOL on the simulated prototype for 150 time periods
// and watch the cost converge while the delay/mAP constraints hold.
//
//   $ ./quickstart
//
// Mirrors the paper's §6.2 setup: one user at 35 dB mean SNR, delta1 = 1,
// delta2 = 8, d_max = 0.4 s, rho_min = 0.5.

#include <iostream>

#include <edgebol/edgebol.hpp>

int main() {
  using namespace edgebol;

  // 1. The platform: vBS + GPU edge server + MVA service (simulated).
  env::Testbed testbed = env::make_static_testbed(/*mean_snr_db=*/35.0);

  // 2. The agent: safe contextual Bayesian online learning over the
  //    11^4-policy control grid.
  env::ControlGrid grid;  // 11 levels per dimension
  core::EdgeBolConfig cfg;
  cfg.weights = {.delta1 = 1.0, .delta2 = 8.0};
  cfg.constraints = {.d_max_s = 0.4, .map_min = 0.5};
  core::EdgeBol agent(grid, cfg);

  // 3. Algorithm 1: observe context -> select -> act -> observe KPIs, one
  //    call per period of core::run_periods.
  Table table({"t", "cost_mu", "delay_s", "mAP", "p_server_W", "p_bs_W",
               "safe_set"});
  core::run_periods(testbed, agent, 150, [&](const auto& r) {
    const int t = r.period + 1;
    const env::Measurement& m = r.measurement;
    if (t <= 5 || t % 25 == 0) {
      table.add_row({fmt(t, 0),
                     fmt(agent.weights().cost(m.server_power_w, m.bs_power_w), 1),
                     fmt(m.delay_s, 3), fmt(m.map, 3),
                     fmt(m.server_power_w, 1), fmt(m.bs_power_w, 2),
                     fmt(static_cast<double>(r.decision.safe_set_size), 0)});
    }
  });
  table.print(std::cout);

  // 4. Compare with the offline exhaustive-search oracle.
  const auto oracle = baselines::exhaustive_oracle(
      testbed, grid, agent.weights(), agent.constraints());
  std::cout << "\noracle: cost=" << fmt(oracle.cost, 1)
            << " (resolution=" << fmt(oracle.policy.resolution, 2)
            << ", airtime=" << fmt(oracle.policy.airtime, 2)
            << ", gpu_speed=" << fmt(oracle.policy.gpu_speed, 2)
            << ", mcs_cap=" << oracle.policy.mcs_cap << ")\n"
            << "oracle expected delay=" << fmt(oracle.expected.delay_s, 3)
            << " s, mAP=" << fmt(oracle.expected.map, 3) << "\n";
  return 0;
}
