// Full O-RAN integration demo (Fig. 7): EdgeBOL never touches the platform
// directly — radio policies descend rApp -> A1-P -> xApp -> E2 -> O-eNB,
// service policies go to the service controller, and the BS-power KPI
// returns over E2 -> O1. The demo prints every wire frame carried by each
// link direction for the first periods, as oran::describe_frame text.
//
//   $ ./oran_integration

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include <edgebol/edgebol.hpp>

int main() {
  using namespace edgebol;

  env::Testbed tb = env::make_static_testbed(35.0);
  oran::OranManagedTestbed managed(tb);

  core::EdgeBolConfig cfg;
  cfg.weights = {1.0, 8.0};
  cfg.constraints = {0.4, 0.5};
  core::EdgeBol agent(env::ControlGrid{}, cfg);

  struct Direction {
    const char* label;
    const oran::InterfaceFabric* fabric;
    std::size_t printed = 0;
  };
  std::vector<Direction> dirs = {
      {"A1-P  NonRT  -> NearRT", &managed.a1().down},
      {"A1-P  NearRT -> NonRT ", &managed.a1().up},
      {"E2    NearRT -> O-eNB ", &managed.e2().down},
      {"E2    O-eNB  -> NearRT", &managed.e2().up},
      {"O1    NearRT -> NonRT ", &managed.o1().up},
      {"svc   NonRT  -> env   ", &managed.svc().down},
      {"svc   env    -> NonRT ", &managed.svc().up},
  };

  std::cout << "Running EdgeBOL through the O-RAN control plane...\n";
  env::Measurement last{};
  core::run_periods(managed, agent, 40, [&](const auto& r) {
    last = r.measurement;
    if (r.period < 3) {
      // Period 0 also shows the svc hello exchanged at construction.
      std::cout << "\n-- period " << r.period << " wire frames --\n";
      for (Direction& dir : dirs) {
        const std::vector<std::string>& log = dir.fabric->frame_log();
        const std::size_t fresh = std::min(
            dir.fabric->messages_carried() - dir.printed, log.size());
        for (std::size_t i = log.size() - fresh; i < log.size(); ++i)
          std::cout << dir.label << "  " << oran::describe_frame(log[i])
                    << '\n';
        dir.printed = dir.fabric->messages_carried();
      }
    }
  });

  std::cout << "\n-- link statistics after 40 periods --\n";
  Table t({"link direction", "messages_carried"});
  for (const Direction& dir : dirs) {
    t.add_row({dir.label,
               fmt(static_cast<double>(dir.fabric->messages_carried()), 0)});
  }
  t.print(std::cout);

  std::cout << "\nLatest BS-power KPI at the data-collector rApp: "
            << fmt(last.bs_power_w, 3) << " W (period 39, "
            << managed.kpi_losses() << " KPIs lost)\n";
  return 0;
}
