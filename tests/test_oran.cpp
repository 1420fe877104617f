#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/orchestrator.hpp"
#include "env/scenarios.hpp"
#include "fault/fault.hpp"
#include "oran/messages.hpp"
#include "oran/oran_env.hpp"
#include "oran/ric.hpp"
#include "oran/ric_node.hpp"

namespace edgebol::oran {
namespace {

TEST(Messages, A1PolicyRoundTrip) {
  A1PolicySetup m{42, 0.75, 16};
  const A1PolicySetup r = a1_policy_setup_from_json(to_json(m));
  EXPECT_EQ(r.policy_id, 42);
  EXPECT_DOUBLE_EQ(r.airtime, 0.75);
  EXPECT_EQ(r.mcs_cap, 16);
}

TEST(Messages, AllRoundTrips) {
  EXPECT_TRUE(a1_policy_ack_from_json(to_json(A1PolicyAck{7, true})).accepted);
  const E2ControlRequest e2 =
      e2_control_request_from_json(to_json(E2ControlRequest{9, 0.3, 4}));
  EXPECT_EQ(e2.request_id, 9);
  EXPECT_DOUBLE_EQ(e2.airtime, 0.3);
  EXPECT_FALSE(
      e2_control_ack_from_json(to_json(E2ControlAck{9, false})).success);
  EXPECT_DOUBLE_EQ(
      e2_kpi_indication_from_json(to_json(E2KpiIndication{1, 5.25}))
          .bs_power_w,
      5.25);
  EXPECT_EQ(o1_kpi_report_from_json(to_json(O1KpiReport{3, 6.0})).sequence, 3);
}

TEST(Messages, WhitespaceAndOrderTolerant) {
  const A1PolicySetup r = a1_policy_setup_from_json(
      "{ \"mcs_cap\" : 5 , \"airtime\" : 0.5 , \"policy_id\" : 1 }");
  EXPECT_EQ(r.mcs_cap, 5);
  EXPECT_DOUBLE_EQ(r.airtime, 0.5);
}

TEST(Messages, MalformedJsonThrows) {
  EXPECT_THROW(a1_policy_setup_from_json("{}"), std::invalid_argument);
  EXPECT_THROW(a1_policy_setup_from_json("{\"policy_id\":1,\"airtime\":x}"),
               std::invalid_argument);
  EXPECT_THROW(
      a1_policy_setup_from_json(
          "{\"policy_id\":1.5,\"airtime\":0.5,\"mcs_cap\":2}"),
      std::invalid_argument);
  EXPECT_THROW(e2_control_ack_from_json("{\"request_id\":1,\"success\":2}"),
               std::invalid_argument);
}

TEST(InterfaceFabric, BoundedLog) {
  InterfaceFabric f("test", 2);
  f.send("a");
  f.send("b");
  f.send("c");
  EXPECT_EQ(f.messages_carried(), 3u);
  ASSERT_EQ(f.frame_log().size(), 2u);
  EXPECT_EQ(f.frame_log().front(), "b");
  EXPECT_EQ(f.drain().size(), 3u);
}

TEST(InterfaceFabric, DelayedFrameOrder) {
  // Pins the "fabric delayed frame order" guarantee documented on
  // InterfaceFabric::send: a delayed frame is released exactly one send
  // later and always ahead of every copy of the frame offered then.
  fault::FaultInjector injector{fault::FaultPlan{.seed = 7}};
  InterfaceFabric fabric("e2");

  fault::FrameFaultRates delay_all;
  delay_all.delay = 1.0;
  fabric.enable_faults(&injector, delay_all);
  fabric.send("first");
  EXPECT_TRUE(fabric.drain().empty());
  EXPECT_EQ(fabric.frames_delayed(), 1u);

  // The next send also draws kDelay: "first" is released while "second"
  // takes its place in the parking slot — one send late, no more.
  fabric.send("second");
  const std::vector<std::string> second = fabric.drain();
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0], "first");
  EXPECT_EQ(fabric.frames_delayed(), 2u);

  // Clean fate: the parked "second" precedes the current "third".
  fabric.enable_faults(&injector, fault::FrameFaultRates{});
  fabric.send("third");
  const std::vector<std::string> third = fabric.drain();
  ASSERT_EQ(third.size(), 2u);
  EXPECT_EQ(third[0], "second");
  EXPECT_EQ(third[1], "third");

  // Duplicate fate: both copies of the current frame still trail the
  // released frame — a delayed frame is never overtaken.
  fabric.enable_faults(&injector, delay_all);
  fabric.send("fourth");
  EXPECT_TRUE(fabric.drain().empty());
  fault::FrameFaultRates dup_all;
  dup_all.duplicate = 1.0;
  fabric.enable_faults(&injector, dup_all);
  fabric.send("fifth");
  const std::vector<std::string> fifth = fabric.drain();
  ASSERT_EQ(fifth.size(), 3u);
  EXPECT_EQ(fifth[0], "fourth");
  EXPECT_EQ(fifth[1], "fifth");
  EXPECT_EQ(fifth[2], "fifth");
}

TEST(ServiceController, AppliesAndValidates) {
  ServiceController c;
  c.apply({0.5, 0.25});
  EXPECT_DOUBLE_EQ(c.resolution(), 0.5);
  EXPECT_DOUBLE_EQ(c.gpu_speed(), 0.25);
  EXPECT_EQ(c.requests_handled(), 1u);
  EXPECT_THROW(c.apply({0.0, 0.5}), std::invalid_argument);
  EXPECT_THROW(c.apply({0.5, 1.5}), std::invalid_argument);
}

TEST(OranManagedTestbed, EquivalentToDirectStepping) {
  // Fault-free, the control plane is invisible: an agent-driven run through
  // it reproduces Orchestrator::run on the bare testbed bit for bit —
  // every period's decision, the four KPIs and the context.
  constexpr int kPeriods = 60;
  core::EdgeBolConfig acfg;
  acfg.weights = {1.0, 8.0};
  acfg.constraints = {0.4, 0.5};
  acfg.resilience.enabled = true;
  env::TestbedConfig cfg;
  cfg.seed = 1234;

  env::Testbed direct = env::make_static_testbed(30.0, cfg);
  core::EdgeBol direct_agent(env::ControlGrid{}, acfg);
  core::Orchestrator direct_orch(direct_agent);
  direct_orch.run(direct, kPeriods);

  env::Testbed managed_tb = env::make_static_testbed(30.0, cfg);
  OranManagedTestbed managed(managed_tb);
  core::EdgeBol managed_agent(env::ControlGrid{}, acfg);
  core::Orchestrator managed_orch(managed_agent);
  managed_orch.run(managed, kPeriods);

  const auto& a = direct_orch.history();
  const auto& b = managed_orch.history();
  ASSERT_EQ(a.size(), static_cast<std::size_t>(kPeriods));
  ASSERT_EQ(b.size(), a.size());
  for (std::size_t t = 0; t < a.size(); ++t) {
    EXPECT_EQ(a[t].decision.policy_index, b[t].decision.policy_index)
        << "period " << t;
    EXPECT_EQ(a[t].measurement.delay_s, b[t].measurement.delay_s) << t;
    EXPECT_EQ(a[t].measurement.map, b[t].measurement.map) << t;
    EXPECT_EQ(a[t].measurement.server_power_w,
              b[t].measurement.server_power_w)
        << t;
    EXPECT_EQ(a[t].measurement.bs_power_w, b[t].measurement.bs_power_w) << t;
    EXPECT_EQ(a[t].context.n_users, b[t].context.n_users) << t;
    EXPECT_EQ(a[t].context.cqi_mean, b[t].context.cqi_mean) << t;
    EXPECT_EQ(a[t].context.cqi_var, b[t].context.cqi_var) << t;
  }
  EXPECT_EQ(managed.policy_delivery_failures(), 0u);
  EXPECT_EQ(managed.kpi_losses(), 0u);
}

TEST(OranManagedTestbed, KpiFlowsThroughO1) {
  env::Testbed tb = env::make_static_testbed(30.0);
  OranManagedTestbed managed(tb);
  env::ControlPolicy p;
  const env::Measurement m = managed.step(p);
  EXPECT_EQ(managed.kpi_losses(), 0u);
  EXPECT_EQ(managed.near_rt().indications_forwarded(), 1u);
  ASSERT_EQ(managed.o1().up.frame_log().size(), 1u);
  std::string kind, body;
  ASSERT_TRUE(wire_unpack(managed.o1().up.frame_log().back(), &kind, &body));
  EXPECT_EQ(kind, kKindO1Report);
  const O1KpiReport report = o1_kpi_report_from_json(body);
  EXPECT_EQ(report.sequence, 1);
  EXPECT_EQ(report.bs_power_w, m.bs_power_w);
  EXPECT_EQ(managed.env_node().steps_run(), 1u);
}

TEST(OranManagedTestbed, DeploysSequencedPolicies) {
  env::Testbed tb = env::make_static_testbed(30.0);
  OranManagedTestbed managed(tb);
  (void)managed.step({0.8, 0.5, 0.9, 10});
  (void)managed.step({0.8, 0.7, 0.9, 12});
  EXPECT_EQ(managed.non_rt().last_policy_id(), 2);
  EXPECT_EQ(managed.env_node().controls_applied(), 2u);
  // 2 setups + 2 acks on A1; each setup became one E2 control with a fresh
  // request id carrying the deployed knobs.
  EXPECT_EQ(managed.a1().down.messages_carried(), 2u);
  EXPECT_EQ(managed.a1().up.messages_carried(), 2u);
  std::string kind, body;
  ASSERT_TRUE(wire_unpack(managed.e2().down.frame_log().back(), &kind, &body));
  EXPECT_EQ(kind, kKindE2Ctrl);
  const E2ControlRequest ctrl = e2_control_request_from_json(body);
  EXPECT_EQ(ctrl.request_id, 2);
  EXPECT_DOUBLE_EQ(ctrl.airtime, 0.7);
  EXPECT_EQ(ctrl.mcs_cap, 12);
}

TEST(Messages, TryDecodersMatchThrowingParsersOnCleanFrames) {
  const auto setup =
      try_a1_policy_setup_from_json(to_json(A1PolicySetup{42, 0.75, 16}));
  ASSERT_TRUE(setup.has_value());
  EXPECT_EQ(setup->policy_id, 42);
  EXPECT_DOUBLE_EQ(setup->airtime, 0.75);
  EXPECT_EQ(setup->mcs_cap, 16);

  EXPECT_TRUE(try_a1_policy_ack_from_json(to_json(A1PolicyAck{7, true}))
                  ->accepted);
  EXPECT_EQ(try_e2_control_request_from_json(to_json(E2ControlRequest{9, 0.3, 4}))
                ->request_id,
            9);
  EXPECT_FALSE(
      try_e2_control_ack_from_json(to_json(E2ControlAck{9, false}))->success);
  EXPECT_DOUBLE_EQ(
      try_e2_kpi_indication_from_json(to_json(E2KpiIndication{1, 5.25}))
          ->bs_power_w,
      5.25);
  EXPECT_EQ(try_o1_kpi_report_from_json(to_json(O1KpiReport{3, 6.0}))->sequence,
            3);
}

TEST(Messages, TryDecodersReturnNulloptInsteadOfThrowing) {
  EXPECT_EQ(try_a1_policy_setup_from_json("{}"), std::nullopt);
  EXPECT_EQ(try_a1_policy_setup_from_json("not json at all"), std::nullopt);
  EXPECT_EQ(try_e2_control_ack_from_json("{\"request_id\":1,\"success\":2}"),
            std::nullopt);
  EXPECT_EQ(try_o1_kpi_report_from_json(""), std::nullopt);
  // Integer fields outside their C++ type are malformed, not wrapped or
  // (for doubles beyond int64) undefined.
  EXPECT_EQ(try_a1_policy_setup_from_json(
                "{\"policy_id\":1,\"airtime\":0.5,\"mcs_cap\":4294967306}"),
            std::nullopt);
  EXPECT_EQ(try_env_hello_from_json(
                "{\"n_users\":-4294967295,\"cqi_mean\":9,\"cqi_var\":1}"),
            std::nullopt);
  EXPECT_EQ(try_e2_control_ack_from_json(
                "{\"request_id\":1e300,\"success\":true}"),
            std::nullopt);
  EXPECT_EQ(try_env_step_request_from_json(
                "{\"step_id\":inf,\"resolution\":0.5,\"gpu_speed\":0.5}"),
            std::nullopt);
}

TEST(Messages, FuzzedFramesNeverThrowAndCleanFramesRoundTrip) {
  // Fuzz-style sweep: every frame type, mutated by the fault injector's
  // corruption modes (truncation, byte flips, junk splices) many times.
  // The try-decoders must never throw; whenever a mutant still decodes it
  // must do so silently, and the unmutated frame must decode exactly.
  const std::vector<std::string> frames = {
      to_json(A1PolicySetup{42, 0.75, 16}),
      to_json(A1PolicyAck{7, true}),
      to_json(E2ControlRequest{9, 0.3, 4}),
      to_json(E2ControlAck{9, false}),
      to_json(E2KpiIndication{11, 5.25}),
      to_json(O1KpiReport{3, 6.0}),
  };
  fault::FaultInjector injector{fault::FaultPlan{.seed = 1234}};
  for (const std::string& frame : frames) {
    for (int i = 0; i < 300; ++i) {
      const std::string mutant = injector.corrupt_frame(frame);
      EXPECT_NO_THROW({
        (void)try_a1_policy_setup_from_json(mutant);
        (void)try_a1_policy_ack_from_json(mutant);
        (void)try_e2_control_request_from_json(mutant);
        (void)try_e2_control_ack_from_json(mutant);
        (void)try_e2_kpi_indication_from_json(mutant);
        (void)try_o1_kpi_report_from_json(mutant);
      });
    }
  }
  // Round trip on the clean frames survives the sweep (the decoders are
  // pure functions; fuzzing did not poison any shared state).
  EXPECT_EQ(try_a1_policy_setup_from_json(frames[0])->policy_id, 42);
  EXPECT_EQ(try_o1_kpi_report_from_json(frames[5])->sequence, 3);
}

TEST(OranManagedTestbed, RejectedPolicyThrows) {
  env::Testbed tb = env::make_static_testbed(30.0);
  OranManagedTestbed managed(tb);
  // Invalid for the radio side: airtime outside (0, 1], MCS cap beyond the
  // UL table. The Near-RT RIC rejects each without touching E2.
  for (const env::ControlPolicy& p :
       {env::ControlPolicy{1.0, 0.0, 1.0, 10},
        env::ControlPolicy{1.0, 1.5, 1.0, 10},
        env::ControlPolicy{1.0, 0.5, 1.0, 99}}) {
    EXPECT_THROW(managed.step(p), std::runtime_error);
  }
  EXPECT_EQ(managed.near_rt().policies_rejected(), 3u);
  EXPECT_EQ(managed.e2().down.messages_carried(), 0u);
}

}  // namespace
}  // namespace edgebol::oran
