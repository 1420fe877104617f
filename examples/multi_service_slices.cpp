// Two AI services on one platform (§4.4): a surveillance slice and an
// industrial fault-detection slice share the vBS and the GPU. Shows both
// deployment styles the paper discusses — the joint orchestrator over the
// coupled action space, and the per-slice design (two EdgeBOL instances
// under a static airtime split) the paper recommends.
//
//   $ ./multi_service_slices [periods]

#include <cstdlib>
#include <iostream>

#include <edgebol/edgebol.hpp>

int main(int argc, char** argv) {
  using namespace edgebol;

  const int periods = argc > 1 ? std::max(50, std::atoi(argv[1])) : 250;
  const core::CostWeights weights{1.0, 8.0};
  const core::ConstraintSpec surveillance_sla{0.8, 0.5};  // 0.8 s, mAP 0.5
  const core::ConstraintSpec factory_sla{0.8, 0.5};

  std::cout << "Two slices (surveillance @32 dB, factory @28 dB), "
            << periods << " periods each style\n\n";

  // ---- per-slice: two independent agents, static 50/50 airtime ----
  env::TestbedConfig cfg;
  cfg.seed = 42;
  env::MultiServiceTestbed tb =
      env::make_two_service_testbed(1, 32.0, 1, 28.0, cfg);
  env::GridSpec slice_spec;
  slice_spec.levels_per_dim = 6;
  slice_spec.airtime_max = 0.5;
  core::EdgeBolConfig acfg;
  acfg.weights = weights;
  acfg.constraints = surveillance_sla;
  core::EdgeBol cam(env::ControlGrid{slice_spec}, acfg);
  acfg.constraints = factory_sla;
  core::EdgeBol factory(env::ControlGrid{slice_spec}, acfg);

  // Both loops are written out: core::run_periods drives one agent on a
  // single-slice environment, and this step takes both slices' policies.
  RunningStats per_slice_tail;
  for (int t = 0; t < periods; ++t) {
    const env::Context ca = tb.context(0);
    const env::Context cb = tb.context(1);
    const core::Decision da = cam.select(ca);
    const core::Decision db = factory.select(cb);
    const env::MultiMeasurement m = tb.step(da.policy, db.policy);
    cam.update(ca, da.policy_index, m.service[0]);
    factory.update(cb, db.policy_index, m.service[1]);
    if (t >= periods - 50)
      per_slice_tail.add(weights.cost(m.server_power_w, m.bs_power_w));
  }

  // ---- joint: one agent over the coupled 8-dim action space ----
  env::TestbedConfig cfg2;
  cfg2.seed = 42;
  env::MultiServiceTestbed tb2 =
      env::make_two_service_testbed(1, 32.0, 1, 28.0, cfg2);
  core::JointBolConfig jcfg;
  jcfg.levels_per_dim = 3;
  jcfg.weights = weights;
  jcfg.constraints_a = surveillance_sla;
  jcfg.constraints_b = factory_sla;
  core::JointEdgeBol joint(jcfg);

  RunningStats joint_tail;
  for (int t = 0; t < periods; ++t) {
    const linalg::Vector ctx = tb2.joint_context_features();
    const core::JointDecision d = joint.select(ctx);
    const env::MultiMeasurement m = tb2.step(d.policy.a, d.policy.b);
    joint.update(ctx, d.index, m);
    if (t >= periods - 50)
      joint_tail.add(weights.cost(m.server_power_w, m.bs_power_w));
  }

  Table t({"design", "action_space", "converged_cost_mu"});
  t.add_row({"per-slice (2x EdgeBOL, 50/50 airtime)",
             "2 x 6^4 = 2592", fmt(per_slice_tail.mean(), 1)});
  t.add_row({"joint (coupled pairs)",
             std::to_string(joint.num_candidates()) + " pairs",
             fmt(joint_tail.mean(), 1)});
  t.print(std::cout);

  std::cout << "\nThe per-slice design reaches the lower cost in far fewer "
               "periods — the §4.4 scalability argument. The joint design "
               "only pays off when the airtime split itself must adapt "
               "(e.g. very asymmetric slices).\n";
  return 0;
}
