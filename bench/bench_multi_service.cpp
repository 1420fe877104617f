// Extension experiment (§4.4) — joint multi-service orchestration vs the
// per-slice design the paper adopts. Two MVA services share one vBS and one
// GPU. The joint agent controls both slices in a 6-context/8-control space
// with 4 constraints; the per-slice design runs two independent EdgeBOL
// instances under a static 50/50 airtime split. The paper argues the joint
// problem needs far more data (curse of dimensionality) — this bench
// measures exactly that trade-off: the joint optimum is at least as good,
// but convergence is much slower. Each slice is judged with core::violates
// on the noise-free outcome of the chosen policy pair. The loops are
// written out: core::run_periods drives one agent on a single-slice
// environment, and this testbed steps both slices at once.

#include <iostream>

#include "bench_common.hpp"

#include "core/multi_service_bol.hpp"
#include "env/multi_service.hpp"

int main(int argc, char** argv) {
  using namespace edgebol;
  using namespace edgebol::bench;

  const int periods = argc > 1 ? std::max(50, std::atoi(argv[1])) : 400;

  banner(std::cout, "Extension (4.4): joint vs per-slice orchestration");
  std::cout << "(two services: slice A 1 user @32 dB, slice B 1 user @28 dB; "
            << "delta2 = 8; SLA per service: d <= 0.8 s, mAP >= 0.5)\n";

  const core::CostWeights weights{1.0, 8.0};
  const core::ConstraintSpec sla{0.8, 0.5};
  const int window = 25;
  auto violated = [&](const env::MultiMeasurement& e) {
    return core::violates(sla, e.service[0]) ||
           core::violates(sla, e.service[1]);
  };

  // --- Joint agent over the coupled action space. ---
  env::TestbedConfig cfg_j;
  cfg_j.seed = 8001;
  env::MultiServiceTestbed tb_j =
      env::make_two_service_testbed(1, 32.0, 1, 28.0, cfg_j);
  core::JointBolConfig jcfg;
  jcfg.levels_per_dim = 3;
  jcfg.weights = weights;
  jcfg.constraints_a = sla;
  jcfg.constraints_b = sla;
  core::JointEdgeBol joint(jcfg);
  std::cout << "joint candidate pairs: " << joint.num_candidates() << "\n\n";

  std::vector<RunningStats> joint_cost(
      static_cast<std::size_t>((periods + window - 1) / window));
  std::vector<RunningStats> joint_viol(joint_cost.size());
  for (int t = 0; t < periods; ++t) {
    const linalg::Vector ctx = tb_j.joint_context_features();
    const core::JointDecision d = joint.select(ctx);
    const env::MultiMeasurement e = tb_j.expected(d.policy.a, d.policy.b);
    const env::MultiMeasurement m = tb_j.step(d.policy.a, d.policy.b);
    joint.update(ctx, d.index, m);
    const auto wi = static_cast<std::size_t>(t / window);
    joint_cost[wi].add(weights.cost(m.server_power_w, m.bs_power_w));
    joint_viol[wi].add(static_cast<double>(violated(e)));
  }

  // --- Per-slice design: two EdgeBOL instances, static 50/50 airtime. ---
  env::TestbedConfig cfg_p;
  cfg_p.seed = 8001;
  env::MultiServiceTestbed tb_p =
      env::make_two_service_testbed(1, 32.0, 1, 28.0, cfg_p);
  env::GridSpec slice_spec;
  slice_spec.levels_per_dim = 6;
  slice_spec.airtime_max = 0.5;  // the static split keeps a_1 + a_2 <= 1
  core::EdgeBolConfig scfg;
  scfg.weights = weights;
  scfg.constraints = sla;
  core::EdgeBol agent_a(env::ControlGrid{slice_spec}, scfg);
  core::EdgeBol agent_b(env::ControlGrid{slice_spec}, scfg);

  std::vector<RunningStats> slice_cost(joint_cost.size());
  std::vector<RunningStats> slice_viol(joint_cost.size());
  for (int t = 0; t < periods; ++t) {
    const env::Context ca = tb_p.context(0);
    const env::Context cb = tb_p.context(1);
    const core::Decision da = agent_a.select(ca);
    const core::Decision db = agent_b.select(cb);
    const env::MultiMeasurement e = tb_p.expected(da.policy, db.policy);
    const env::MultiMeasurement m = tb_p.step(da.policy, db.policy);
    agent_a.update(ca, da.policy_index, m.service[0]);
    agent_b.update(cb, db.policy_index, m.service[1]);
    const auto wi = static_cast<std::size_t>(t / window);
    slice_cost[wi].add(weights.cost(m.server_power_w, m.bs_power_w));
    slice_viol[wi].add(static_cast<double>(violated(e)));
  }

  Table t({"t", "joint_cost", "per_slice_cost", "joint_viol_rate",
           "per_slice_viol_rate"});
  for (std::size_t wi = 0; wi < joint_cost.size(); ++wi) {
    t.add_row({fmt(static_cast<double>(wi) * window, 0),
               fmt(joint_cost[wi].mean(), 1), fmt(slice_cost[wi].mean(), 1),
               fmt(joint_viol[wi].mean(), 3), fmt(slice_viol[wi].mean(), 3)});
  }
  t.print(std::cout);

  std::cout << "\nShape check (paper's argument): the per-slice design "
               "converges in tens of periods to the lower cost. The joint "
               "agent pays twice for its 14-dimensional space: it must use "
               "a far coarser discretization to stay tractable (3 levels/dim "
               "-> thousands of pairs already) and still explores far more "
               "slowly under 4 simultaneous constraints — the efficiency-vs-"
               "scalability trade-off that justifies per-slice deployment "
               "(§4.4).\n";
  return 0;
}
