// Node-role tests: each role driven synchronously over loopback links (idempotency, validation, degradation paths), and the
// whole three-node plane over the real message plane — including the
// equivalence claim (message-plane trajectory == single-thread
// OranManagedTestbed trajectory) and a chaos soak on the e2 link.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "../tools/plane_harness.hpp"
#include "core/edgebol.hpp"
#include "core/period_loop.hpp"
#include "env/scenarios.hpp"
#include "net/transport.hpp"
#include "oran/oran_env.hpp"
#include "oran/ric.hpp"
#include "oran/ric_node.hpp"

namespace edgebol::oran {
namespace {

// --- synchronous loopback rig ---------------------------------------------
//
// Each link is a LoopbackLink; the node under test holds its south end and
// the test plays the peer through the north end, injecting and reading
// typed messages. With a null ReadySignal every node wait degrades to a
// single pass, so expected frames are pre-queued before the call.

struct Link {
  LoopbackLink wire{"link"};
  net::SplitTransport& node = wire.south;

  std::vector<std::string> sent_by_node() { return wire.north.drain(); }
  template <typename T>
  void inject(const T& message) {
    wire.north.send(encode(message));
  }
};

/// The one frame in `frames` that decodes as T; nullopt for none or several.
template <typename T>
std::optional<T> only_message(const std::vector<std::string>& frames) {
  std::optional<T> found;
  for (const std::string& f : frames) {
    const std::optional<T> m = decode<T>(f);
    if (!m) continue;
    if (found) return std::nullopt;  // more than one
    found = m;
  }
  return found;
}

// --- EnvNode ---------------------------------------------------------------

class EnvNodeTest : public ::testing::Test {
 protected:
  EnvNodeTest()
      : testbed(env::make_static_testbed(35.0)),
        node(testbed, &e2.node, &svc.node, nullptr) {}

  env::Testbed testbed;
  Link e2;
  Link svc;
  EnvNode node;
};

TEST_F(EnvNodeTest, AppliesControlAndAcks) {
  e2.inject(E2ControlRequest{1, 0.5, 10});
  node.poll_once();
  const auto ack = only_message<E2ControlAck>(e2.sent_by_node());
  ASSERT_TRUE(ack.has_value());
  EXPECT_TRUE(ack->success);
  EXPECT_EQ(node.controls_applied(), 1u);
}

TEST_F(EnvNodeTest, DuplicateControlIsReAckedNotReApplied) {
  e2.inject(E2ControlRequest{1, 0.5, 10});
  node.poll_once();
  (void)e2.sent_by_node();
  e2.inject(E2ControlRequest{1, 0.5, 10});
  node.poll_once();
  const auto ack = only_message<E2ControlAck>(e2.sent_by_node());
  ASSERT_TRUE(ack.has_value());
  EXPECT_TRUE(ack->success);
  EXPECT_EQ(node.controls_applied(), 1u);
  EXPECT_EQ(node.duplicate_controls(), 1u);
}

TEST_F(EnvNodeTest, StaleControlIsNackedAndNeverRollsBack) {
  e2.inject(E2ControlRequest{1, 0.5, 10});
  e2.inject(E2ControlRequest{2, 0.8, 12});
  node.poll_once();
  (void)e2.sent_by_node();

  // A chaos-reordered control from an earlier period arrives after a newer
  // one was applied: it must be refused, not restore the old radio policy.
  e2.inject(E2ControlRequest{1, 0.5, 10});
  node.poll_once();
  const auto ack = only_message<E2ControlAck>(e2.sent_by_node());
  ASSERT_TRUE(ack.has_value());
  EXPECT_FALSE(ack->success);
  EXPECT_EQ(node.stale_controls(), 1u);
  EXPECT_EQ(node.controls_applied(), 2u);
}

TEST_F(EnvNodeTest, StepRunsTestbedAndEmitsKpiIndication) {
  svc.inject(EnvStepRequest{1, 0.8, 0.9});
  node.poll_once();

  const auto result = only_message<EnvStepResult>(svc.sent_by_node());
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->step_id, 1);
  EXPECT_TRUE(std::isfinite(result->delay_s));
  EXPECT_TRUE(std::isfinite(result->map));

  // The KPI indication rides the e2 link with sequence == step_id.
  const auto kpi = only_message<E2KpiIndication>(e2.sent_by_node());
  ASSERT_TRUE(kpi.has_value());
  EXPECT_EQ(kpi->sequence, 1);
  EXPECT_EQ(node.steps_run(), 1u);
}

TEST_F(EnvNodeTest, DuplicateStepResendsCachedResultWithoutRestepping) {
  svc.inject(EnvStepRequest{1, 0.8, 0.9});
  node.poll_once();
  const auto first = only_message<EnvStepResult>(svc.sent_by_node());
  ASSERT_TRUE(first.has_value());

  // A retried request (the learner's ack was lost) must be idempotent:
  // same cached result, no second testbed step, no second KPI.
  (void)e2.sent_by_node();
  svc.inject(EnvStepRequest{1, 0.8, 0.9});
  node.poll_once();
  const auto second = only_message<EnvStepResult>(svc.sent_by_node());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(encode(*first), encode(*second));
  EXPECT_EQ(node.steps_run(), 1u);
  EXPECT_EQ(node.duplicate_steps(), 1u);
  EXPECT_FALSE(
      only_message<E2KpiIndication>(e2.sent_by_node()).has_value());
}

TEST_F(EnvNodeTest, InvalidServicePolicyIsRejectedNotApplied) {
  svc.inject(EnvStepRequest{1, 0.0, 0.9});
  node.poll_once();
  EXPECT_EQ(node.steps_run(), 0u);
  EXPECT_GT(node.decode_rejects(), 0u);
}

TEST_F(EnvNodeTest, HelloReportsTestbedContext) {
  svc.inject(EnvHelloRequest{});
  node.poll_once();
  const auto hello = only_message<EnvHello>(svc.sent_by_node());
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(hello->ctx.n_users, testbed.context().n_users);
}

// --- NearRtRicNode ---------------------------------------------------------

class NearRtNodeTest : public ::testing::Test {
 protected:
  NearRtNodeTest() : node(&a1.node, &e2.node, &o1.node, nullptr) {}

  Link a1;
  Link e2;
  Link o1;
  NearRtRicNode node;
};

TEST_F(NearRtNodeTest, ValidPolicyIsPushedOverE2ThenAcked) {
  // Pre-queue the env's E2 ack (request ids start at 1): the single-pass
  // wait must find it right after pushing the control.
  e2.inject(E2ControlAck{1, true});
  a1.inject(A1PolicySetup{1, 0.5, 10});
  node.poll_once();

  const auto ctrl = only_message<E2ControlRequest>(e2.sent_by_node());
  ASSERT_TRUE(ctrl.has_value());
  EXPECT_EQ(ctrl->request_id, 1);
  EXPECT_DOUBLE_EQ(ctrl->airtime, 0.5);

  const auto ack = only_message<A1PolicyAck>(a1.sent_by_node());
  ASSERT_TRUE(ack.has_value());
  EXPECT_TRUE(ack->accepted);
  EXPECT_EQ(node.policies_accepted(), 1u);
  EXPECT_EQ(node.e2_apply_failures(), 0u);
}

TEST_F(NearRtNodeTest, InvalidPolicyIsRejectedWithoutTouchingE2) {
  a1.inject(A1PolicySetup{1, 0.0, 10});
  node.poll_once();
  EXPECT_FALSE(
      only_message<E2ControlRequest>(e2.sent_by_node()).has_value());
  const auto ack = only_message<A1PolicyAck>(a1.sent_by_node());
  ASSERT_TRUE(ack.has_value());
  EXPECT_FALSE(ack->accepted);
  EXPECT_EQ(node.policies_rejected(), 1u);
}

TEST_F(NearRtNodeTest, LostE2AckDegradesButStillAcksA1) {
  // No pre-queued E2 ack: the bounded wait expires, the policy still acks
  // accepted (A1 acceptance means validated, not applied) and the failure
  // is counted.
  a1.inject(A1PolicySetup{1, 0.5, 10});
  node.poll_once();
  const auto ack = only_message<A1PolicyAck>(a1.sent_by_node());
  ASSERT_TRUE(ack.has_value());
  EXPECT_TRUE(ack->accepted);
  EXPECT_EQ(node.e2_apply_failures(), 1u);
}

TEST_F(NearRtNodeTest, ForwardsIndicationsAndDropsStaleSequences) {
  e2.inject(E2KpiIndication{1, 9.5});
  node.poll_once();
  const auto rep = only_message<O1KpiReport>(o1.sent_by_node());
  ASSERT_TRUE(rep.has_value());
  EXPECT_EQ(rep->sequence, 1);

  // A duplicate (or reordered) indication must not be forwarded twice.
  e2.inject(E2KpiIndication{1, 9.5});
  node.poll_once();
  EXPECT_FALSE(
      only_message<O1KpiReport>(o1.sent_by_node()).has_value());
  EXPECT_EQ(node.indications_forwarded(), 1u);
  EXPECT_EQ(node.stale_indications(), 1u);
}

// --- NonRtRicNode ----------------------------------------------------------

class NonRtNodeTest : public ::testing::Test {
 protected:
  NonRtNodeTest() : node(&a1.node, &o1.node, &svc.node, nullptr) {}

  Link a1;
  Link o1;
  Link svc;
  NonRtRicNode node;
};

TEST_F(NonRtNodeTest, HandshakeObtainsContext) {
  svc.inject(EnvHello{{3, 11.5, 2.25}});
  ASSERT_TRUE(node.handshake());
  EXPECT_EQ(node.context().n_users, 3u);
  EXPECT_DOUBLE_EQ(node.context().cqi_mean, 11.5);
  const auto hello = only_message<EnvHelloRequest>(svc.sent_by_node());
  EXPECT_TRUE(hello.has_value());
}

TEST_F(NonRtNodeTest, StepRoundTripsPolicyStepAndKpi) {
  svc.inject(EnvHello{{1, 10.0, 1.0}});
  ASSERT_TRUE(node.handshake());

  a1.inject(A1PolicyAck{1, true});
  EnvStepResult res;
  res.step_id = 1;
  res.delay_s = 0.2;
  res.map = 0.6;
  res.server_power_w = 100.0;
  res.ctx = {1.0, 12.0, 1.5};
  svc.inject(res);
  o1.inject(O1KpiReport{1, 9.5});

  env::ControlPolicy policy;
  policy.resolution = 0.8;
  policy.airtime = 0.5;
  policy.gpu_speed = 0.9;
  policy.mcs_cap = 10;
  const env::Measurement m = node.step(policy);
  EXPECT_DOUBLE_EQ(m.delay_s, 0.2);
  EXPECT_DOUBLE_EQ(m.map, 0.6);
  EXPECT_DOUBLE_EQ(m.server_power_w, 100.0);
  EXPECT_DOUBLE_EQ(m.bs_power_w, 9.5);
  // The post-step context from the result becomes the next period's
  // context.
  EXPECT_DOUBLE_EQ(node.context().cqi_mean, 12.0);
  EXPECT_TRUE(node.last_delivery().delivered);
  EXPECT_EQ(node.kpi_losses(), 0u);
}

TEST_F(NonRtNodeTest, LostKpiReportSurfacesAsNanBsPower) {
  svc.inject(EnvHello{{1, 10.0, 1.0}});
  ASSERT_TRUE(node.handshake());

  a1.inject(A1PolicyAck{1, true});
  EnvStepResult res;
  res.step_id = 1;
  res.delay_s = 0.2;
  res.map = 0.6;
  res.server_power_w = 100.0;
  res.ctx = {1.0, 12.0, 1.5};
  svc.inject(res);
  // No O1 report: the learner's resilience layer (KPI gate + watchdog)
  // sees the loss as a NaN BS-power sample.
  env::ControlPolicy policy;
  policy.resolution = 0.8;
  policy.airtime = 0.5;
  policy.gpu_speed = 0.9;
  policy.mcs_cap = 10;
  const env::Measurement m = node.step(policy);
  EXPECT_TRUE(std::isnan(m.bs_power_w));
  EXPECT_DOUBLE_EQ(m.delay_s, 0.2);
  EXPECT_EQ(node.kpi_losses(), 1u);
}

TEST_F(NonRtNodeTest, DeadEnvironmentThrowsAfterRetries) {
  svc.inject(EnvHello{{1, 10.0, 1.0}});
  NodeTimeouts fast;
  fast.step_attempts = 2;
  fast.step_result_ms = 1;
  Link a1b, o1b, svcb;
  NonRtRicNode impatient(&a1b.node, &o1b.node, &svcb.node, nullptr, fast);
  svcb.inject(EnvHello{{1, 10.0, 1.0}});
  ASSERT_TRUE(impatient.handshake());
  a1b.inject(A1PolicyAck{1, true});
  env::ControlPolicy policy;
  policy.resolution = 0.8;
  policy.airtime = 0.5;
  policy.gpu_speed = 0.9;
  policy.mcs_cap = 10;
  EXPECT_THROW(impatient.step(policy), std::runtime_error);
}

// --- the three-node plane over real sockets ---------------------------------

TEST(PlaneRun, TrajectoryMatchesInProcessLoopback) {
  constexpr int kPeriods = 10;
  env::TestbedConfig tcfg;
  tcfg.seed = 3;

  using Period = core::PeriodRecord<core::Decision>;
  std::vector<Period> ref;
  {
    env::Testbed tb = env::make_static_testbed(35.0, tcfg);
    OranManagedTestbed managed(tb);
    core::EdgeBol agent(env::ControlGrid{}, plane::canonical_agent_config());
    core::run_periods(managed, agent, kPeriods,
                      [&](const Period& r) { ref.push_back(r); });
  }

  plane::MuxPlane net_plane;
  env::Testbed tb = env::make_static_testbed(35.0, tcfg);
  NearRtRicNode nearrt(net_plane.a1_s, net_plane.e2_c, net_plane.o1_s,
                       &net_plane.nearrt_ready);
  EnvNode envnode(tb, net_plane.e2_s, net_plane.svc_s, &net_plane.env_ready);
  NonRtRicNode nonrt(net_plane.a1_c, net_plane.o1_c, net_plane.svc_c,
                     &net_plane.nonrt_ready);
  std::atomic<bool> stop{false};
  std::thread t1([&] { nearrt.run(stop); });
  std::thread t2([&] { envnode.run(stop); });

  ASSERT_TRUE(nonrt.handshake());
  core::EdgeBol agent(env::ControlGrid{}, plane::canonical_agent_config());
  std::vector<Period> got;
  core::run_periods(nonrt, agent, kPeriods, [&](const Period& r) {
    EXPECT_FALSE(r.expected.has_value());  // the testbed is remote
    got.push_back(r);
  });

  stop.store(true);
  net_plane.nearrt_ready.notify();
  net_plane.env_ready.notify();
  t1.join();
  t2.join();

  EXPECT_EQ(nonrt.kpi_losses(), 0u);
  EXPECT_EQ(nonrt.policy_delivery_failures(), 0u);
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const env::ControlPolicy& a = ref[i].decision.policy;
    const env::ControlPolicy& b = got[i].decision.policy;
    EXPECT_EQ(a.resolution, b.resolution) << "period " << i;
    EXPECT_EQ(a.airtime, b.airtime) << "period " << i;
    EXPECT_EQ(a.gpu_speed, b.gpu_speed) << "period " << i;
    EXPECT_EQ(a.mcs_cap, b.mcs_cap) << "period " << i;
    EXPECT_EQ(ref[i].measurement.delay_s, got[i].measurement.delay_s)
        << "period " << i;
    EXPECT_EQ(ref[i].measurement.bs_power_w, got[i].measurement.bs_power_w)
        << "period " << i;
  }
}

TEST(PlaneRun, SurvivesE2FrameChaos) {
  constexpr int kPeriods = 12;
  fault::TransportFaultRates chaos;
  chaos.frames.drop = 0.15;
  chaos.frames.duplicate = 0.10;
  chaos.frames.corrupt = 0.10;
  chaos.frames.delay = 0.10;
  chaos.delay_ms = 10;
  chaos.reorder = 0.10;

  plane::MuxPlaneOptions opt;
  opt.e2_client = {chaos, 77};
  opt.e2_server = {chaos, 77};
  plane::MuxPlane net_plane(opt);
  env::TestbedConfig tcfg;
  tcfg.seed = 4;
  env::Testbed tb = env::make_static_testbed(35.0, tcfg);
  NearRtRicNode nearrt(net_plane.a1_s, net_plane.e2_c, net_plane.o1_s,
                       &net_plane.nearrt_ready);
  EnvNode envnode(tb, net_plane.e2_s, net_plane.svc_s, &net_plane.env_ready);
  NonRtRicNode nonrt(net_plane.a1_c, net_plane.o1_c, net_plane.svc_c,
                     &net_plane.nonrt_ready);
  std::atomic<bool> stop{false};
  std::thread t1([&] { nearrt.run(stop); });
  std::thread t2([&] { envnode.run(stop); });

  ASSERT_TRUE(nonrt.handshake());
  core::EdgeBol agent(env::ControlGrid{}, plane::canonical_agent_config());
  std::size_t periods_run = 0;
  core::run_periods(nonrt, agent, kPeriods,
                    [&](const auto&) { ++periods_run; });

  stop.store(true);
  net_plane.nearrt_ready.notify();
  net_plane.env_ready.notify();
  t1.join();
  t2.join();

  // Chaos on e2 degrades (lost KPIs, failed pushes) but must never wedge
  // the loop or violate the protocol's idempotency: every period completes
  // and the environment never double-steps.
  EXPECT_EQ(periods_run, static_cast<std::size_t>(kPeriods));
  EXPECT_EQ(envnode.steps_run(), static_cast<std::size_t>(kPeriods));
  EXPECT_LE(nonrt.kpi_losses(), static_cast<std::size_t>(kPeriods));
  const net::TransportStats cs = net_plane.e2ep_c->stats().link;
  const net::TransportStats ss = net_plane.e2ep_s->stats().link;
  EXPECT_GT(cs.chaos_dropped + cs.chaos_duplicated + cs.chaos_corrupted +
                cs.chaos_delayed + cs.chaos_reordered + ss.chaos_dropped +
                ss.chaos_duplicated + ss.chaos_corrupted + ss.chaos_delayed +
                ss.chaos_reordered,
            0u);
}

}  // namespace
}  // namespace edgebol::oran
