// Configurable experiment runner: EdgeBOL on any of the built-in scenarios
// with the knobs exposed as flags, emitting a per-period CSV trajectory.
//
//   $ ./run_experiment --scenario static --snr 35 --delta2 8
//         --dmax 0.4 --rhomin 0.5 --periods 150 --seed 1 [--csv]
//   $ ./run_experiment --scenario hetero --users 4 --periods 200
//   $ ./run_experiment --scenario dynamic --periods 150
//
// Useful for poking at the system without writing code, and for generating
// trajectories for external plotting.

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include <edgebol/edgebol.hpp>

namespace {

struct Args {
  std::string scenario = "static";
  double snr_db = 35.0;
  std::size_t users = 4;
  double delta1 = 1.0;
  double delta2 = 8.0;
  double d_max = 0.4;
  double rho_min = 0.5;
  int periods = 150;
  std::uint64_t seed = 1;
  std::size_t levels = 11;
  bool csv = false;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) throw std::invalid_argument("missing value");
      return argv[++i];
    };
    try {
      if (flag == "--scenario") a.scenario = value();
      else if (flag == "--snr") a.snr_db = std::atof(value());
      else if (flag == "--users") a.users = std::strtoul(value(), nullptr, 10);
      else if (flag == "--delta1") a.delta1 = std::atof(value());
      else if (flag == "--delta2") a.delta2 = std::atof(value());
      else if (flag == "--dmax") a.d_max = std::atof(value());
      else if (flag == "--rhomin") a.rho_min = std::atof(value());
      else if (flag == "--periods") a.periods = std::atoi(value());
      else if (flag == "--seed") a.seed = std::strtoull(value(), nullptr, 10);
      else if (flag == "--levels") a.levels = std::strtoul(value(), nullptr, 10);
      else if (flag == "--csv") a.csv = true;
      else {
        std::cerr << "unknown flag: " << flag << "\n";
        return false;
      }
    } catch (const std::exception&) {
      std::cerr << "bad/missing value for " << flag << "\n";
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace edgebol;

  Args args;
  if (!parse(argc, argv, args)) {
    std::cerr << "usage: run_experiment [--scenario static|hetero|dynamic] "
                 "[--snr dB] [--users N] [--delta1 X] [--delta2 X] "
                 "[--dmax s] [--rhomin x] [--periods N] [--seed N] "
                 "[--levels N] [--csv]\n";
    return 2;
  }

  env::TestbedConfig tcfg;
  tcfg.seed = args.seed;
  auto make_testbed = [&]() -> env::Testbed {
    if (args.scenario == "static")
      return env::make_static_testbed(args.snr_db, tcfg);
    if (args.scenario == "hetero")
      return env::make_heterogeneous_testbed(args.users, 30.0, 0.2, tcfg);
    if (args.scenario == "dynamic")
      return env::make_dynamic_testbed(5.0, 38.0, 6, 4, tcfg);
    throw std::invalid_argument("unknown scenario: " + args.scenario);
  };
  env::Testbed tb = make_testbed();

  env::GridSpec spec;
  spec.levels_per_dim = args.levels;
  core::EdgeBolConfig cfg;
  cfg.weights = {args.delta1, args.delta2};
  cfg.constraints = {args.d_max, args.rho_min};
  core::EdgeBol agent(env::ControlGrid{spec}, cfg);

  Table t({"t", "cost", "delay_s", "map", "server_power_w", "bs_power_w",
           "resolution", "airtime", "gpu_speed", "mcs_cap", "safe_set",
           "mean_snr_db"});
  core::run_periods(tb, agent, args.periods, [&](const auto& r) {
    const env::Measurement& m = r.measurement;
    t.add_row({fmt(r.period, 0),
               fmt(cfg.weights.cost(m.server_power_w, m.bs_power_w), 2),
               fmt(m.delay_s, 4), fmt(m.map, 3), fmt(m.server_power_w, 1),
               fmt(m.bs_power_w, 3), fmt(r.policy.resolution, 3),
               fmt(r.policy.airtime, 3), fmt(r.policy.gpu_speed, 3),
               fmt(r.policy.mcs_cap, 0),
               fmt(static_cast<double>(r.decision.safe_set_size), 0),
               fmt(m.mean_snr_db, 1)});
  });
  if (args.csv) {
    t.print_csv(std::cout);
  } else {
    t.print(std::cout);
  }
  return 0;
}
