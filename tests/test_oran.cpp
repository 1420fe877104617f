#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "core/period_loop.hpp"
#include "env/scenarios.hpp"
#include "fault/fault.hpp"
#include "oran/messages.hpp"
#include "oran/oran_env.hpp"
#include "oran/ric.hpp"
#include "oran/ric_node.hpp"

namespace edgebol::oran {
namespace {

// One sample of every wire message. Every field differs from its default,
// so a field that decode<T> failed to fill would re-encode differently.
WireMessages samples() {
  FleetIndication ind;
  ind.period = 41;
  ind.ctx = {3.0, 17.25, 2.5};
  ind.has_feedback = true;
  ind.policy_index = 624;
  ind.prev_ctx = {2.0, 16.5, 1.25};
  ind.meas.delay_s = 0.123456789012345;
  ind.meas.map = 0.875;
  ind.meas.server_power_w = 215.0625;
  ind.meas.bs_power_w = 37.5;
  FleetPolicy pol;
  pol.period = 7;
  pol.policy_index = 88;
  pol.policy = {0.6, 0.55, 0.84999999999999998, 23};
  return {A1PolicySetup{42, 0.1 + 0.2, 16},
          A1PolicyAck{7, true},
          E2ControlRequest{9, 0.3, 4},
          E2ControlAck{9, true},
          E2KpiIndication{11, 5.25},
          O1KpiReport{3, 1.0 / 3.0},
          EnvHelloRequest{},
          EnvHello{{3.0, 11.5, 2.25}},
          EnvStepRequest{5, 0.8, 0.9},
          EnvStepResult{6, 0.2, 0.6, 100.0, {2.0, 12.0, 1.5}},
          ind,
          pol};
}

template <typename T>
void expect_round_trip(const T& m) {
  const std::string frame = encode(m);
  EXPECT_EQ(frame.size(), kWireBytes<T>) << Wire<T>::kName;
  const std::optional<T> back = decode<T>(frame);
  ASSERT_TRUE(back.has_value()) << Wire<T>::kName;
  // Every field is encoded as its raw bytes: an equal re-encoding means
  // every field came back bit for bit.
  EXPECT_EQ(encode(*back), frame) << Wire<T>::kName;
}

TEST(Messages, EveryTypeRoundTripsBitExactAtItsWireSize) {
  std::apply([](const auto&... m) { (expect_round_trip(m), ...); },
             samples());
  // Doubles cross as their bits, not through a decimal round trip.
  EXPECT_EQ(decode<A1PolicySetup>(encode(A1PolicySetup{1, 0.1 + 0.2, 2}))
                ->airtime,
            0.1 + 0.2);
  const FleetIndication ind = std::get<FleetIndication>(samples());
  const auto back = decode<FleetIndication>(encode(ind));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->meas.delay_s, ind.meas.delay_s);
  EXPECT_EQ(back->prev_ctx.cqi_var, ind.prev_ctx.cqi_var);
  EXPECT_TRUE(back->has_feedback);
}

TEST(Messages, DecodeRejectsWrongSizeWrongKindAndBadBoolBytes) {
  const std::string setup = encode(A1PolicySetup{42, 0.75, 16});
  EXPECT_FALSE(decode<A1PolicySetup>("").has_value());
  EXPECT_FALSE(
      decode<A1PolicySetup>(setup.substr(0, setup.size() - 1)).has_value());
  EXPECT_FALSE(decode<A1PolicySetup>(setup + '\0').has_value());
  // Another type's frame of the same size differs in its kind byte.
  static_assert(kWireBytes<E2ControlRequest> == kWireBytes<A1PolicySetup>);
  EXPECT_FALSE(
      decode<A1PolicySetup>(encode(E2ControlRequest{42, 0.75, 16}))
          .has_value());

  // A bool byte of 2 under a trailer recomputed to match.
  std::string ack = encode(A1PolicyAck{7, true});
  ack[1 + sizeof(std::int64_t)] = 2;
  const std::uint32_t h = fnv1a(
      std::string_view(ack).substr(0, ack.size() - kTrailerBytes));
  std::memcpy(ack.data() + ack.size() - kTrailerBytes, &h, sizeof h);
  EXPECT_FALSE(decode<A1PolicyAck>(ack).has_value());
}

TEST(Messages, EveryInjectedCorruptionIsRejected) {
  // The fault injector's corruption modes (truncation, one byte flipped to
  // printable junk, a junk splice) on every message type: the exact size
  // and the trailer turn each mutant into a reject, never into a
  // different value.
  fault::FaultInjector injector{fault::FaultPlan{.seed = 1234}};
  const auto sweep = [&](const auto& m) {
    const std::string frame = encode(m);
    for (int i = 0; i < 300; ++i) {
      EXPECT_EQ(describe_frame(injector.corrupt_frame(frame)), "undecodable")
          << describe(m) << ", mutant " << i;
    }
  };
  std::apply([&](const auto&... m) { (sweep(m), ...); }, samples());
}

TEST(Messages, DescribeNamesTheKindAndEveryField) {
  EXPECT_EQ(describe(A1PolicySetup{1, 1.0, 20}),
            "a1_setup policy_id=1 airtime=1 mcs_cap=20");
  EXPECT_EQ(describe(A1PolicyAck{7, false}),
            "a1_ack policy_id=7 accepted=false");
  EXPECT_EQ(describe(EnvHelloRequest{}), "hello_req");
  EXPECT_EQ(describe(EnvHello{{3.0, 11.5, 2.25}}),
            "env_hello ctx.n_users=3 ctx.cqi_mean=11.5 ctx.cqi_var=2.25");
  EXPECT_EQ(describe_frame(encode(O1KpiReport{3, 0.1})),
            "o1_report sequence=3 bs_power_w=0.10000000000000001");
  EXPECT_EQ(describe_frame(encode(FleetPolicy{})),
            "fleet_policy period=0 policy_index=0 policy.resolution=1 "
            "policy.airtime=1 policy.gpu_speed=1 policy.mcs_cap=20");
  EXPECT_EQ(describe_frame("a1_setup"), "undecodable");
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
  // it reproduces core::run_periods on the bare testbed bit for bit —
  // every period's decision, the four KPIs and the context.
  constexpr int kPeriods = 60;
  core::EdgeBolConfig acfg;
  acfg.weights = {1.0, 8.0};
  acfg.constraints = {0.4, 0.5};
  acfg.resilience.enabled = true;
  env::TestbedConfig cfg;
  cfg.seed = 1234;

  using Period = core::PeriodRecord<core::Decision>;
  env::Testbed direct = env::make_static_testbed(30.0, cfg);
  core::EdgeBol direct_agent(env::ControlGrid{}, acfg);
  std::vector<Period> a;
  core::run_periods(direct, direct_agent, kPeriods,
                    [&](const Period& r) { a.push_back(r); });

  env::Testbed managed_tb = env::make_static_testbed(30.0, cfg);
  OranManagedTestbed managed(managed_tb);
  core::EdgeBol managed_agent(env::ControlGrid{}, acfg);
  std::vector<Period> b;
  core::run_periods(managed, managed_agent, kPeriods,
                    [&](const Period& r) { b.push_back(r); });

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
  const auto report =
      decode<O1KpiReport>(managed.o1().up.frame_log().back());
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->sequence, 1);
  EXPECT_EQ(report->bs_power_w, m.bs_power_w);
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
  const auto ctrl =
      decode<E2ControlRequest>(managed.e2().down.frame_log().back());
  ASSERT_TRUE(ctrl.has_value());
  EXPECT_EQ(ctrl->request_id, 2);
  EXPECT_DOUBLE_EQ(ctrl->airtime, 0.7);
  EXPECT_EQ(ctrl->mcs_cap, 12);
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

  // Invalid for the service side: resolution outside (0, 1], GPU speed
  // outside [0, 1]. The learner refuses each before any A1 or svc frame
  // goes out, instead of retrying a step the environment drops unanswered.
  env::Testbed tb2 = env::make_static_testbed(30.0);
  OranManagedTestbed fresh(tb2);
  const std::size_t a1_sent = fresh.a1().down.messages_carried();
  const std::size_t svc_sent = fresh.svc().down.messages_carried();
  for (const env::ControlPolicy& p :
       {env::ControlPolicy{0.0, 0.5, 1.0, 10},
        env::ControlPolicy{1.0, 0.5, 1.5, 10}}) {
    EXPECT_THROW(fresh.step(p), std::runtime_error);
    EXPECT_EQ(fresh.a1().down.messages_carried(), a1_sent);
    EXPECT_EQ(fresh.svc().down.messages_carried(), svc_sent);
    EXPECT_EQ(fresh.env_node().decode_rejects(), 0u);
  }
}

}  // namespace
}  // namespace edgebol::oran
