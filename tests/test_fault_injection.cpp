#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "env/scenarios.hpp"
#include "oran/messages.hpp"
#include "oran/oran_env.hpp"
#include "oran/ric.hpp"
#include "oran/ric_node.hpp"

namespace edgebol::fault {
namespace {

FaultPlan lossy_plan(std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.e2 = {0.15, 0.05, 0.05, 0.05};
  plan.o1 = {0.10, 0.05, 0.05, 0.05};
  plan.telemetry.power_blank = 0.1;
  plan.telemetry.power_spike = 0.05;
  return plan;
}

TEST(FaultPlan, ZeroRatesAreDisabled) {
  EXPECT_FALSE(FaultPlan{}.enabled());
  FaultPlan p;
  p.telemetry.map_dropout = 0.01;
  EXPECT_TRUE(p.enabled());
  FaultPlan q;
  q.events.push_back({EnvEventKind::kLoadSpike, 3, 2, 4.0});
  EXPECT_TRUE(q.enabled());
}

TEST(FaultInjector, SameSeedSameChaos) {
  FaultInjector a(lossy_plan(99)), b(lossy_plan(99));
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(a.next_frame_fault(a.plan().e2), b.next_frame_fault(b.plan().e2));
    const double pa = a.tamper_power_w(100.0), pb = b.tamper_power_w(100.0);
    EXPECT_TRUE((std::isnan(pa) && std::isnan(pb)) || pa == pb);
  }
  EXPECT_EQ(a.stats().frames_dropped, b.stats().frames_dropped);
  EXPECT_EQ(a.stats().power_blanks, b.stats().power_blanks);
}

TEST(FaultInjector, DifferentSeedsDiverge) {
  FaultInjector a(lossy_plan(1)), b(lossy_plan(2));
  int differing = 0;
  for (int i = 0; i < 500; ++i)
    differing += a.next_frame_fault(a.plan().e2) != b.next_frame_fault(b.plan().e2);
  EXPECT_GT(differing, 0);
}

TEST(FaultInjector, ZeroRatePlanIsTransparent) {
  FaultInjector inj{FaultPlan{.seed = 7}};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(inj.next_frame_fault(inj.plan().e2), FrameFault::kNone);
    EXPECT_EQ(inj.tamper_power_w(123.456), 123.456);
    EXPECT_EQ(inj.tamper_map(0.77), 0.77);
    EXPECT_EQ(inj.tamper_delay_s(0.2), 0.2);
    EXPECT_FALSE(inj.perturbation_at(i).active());
  }
  EXPECT_EQ(inj.stats().total_frame_faults(), 0u);
  EXPECT_EQ(inj.stats().event_periods, 0u);
}

TEST(FaultInjector, FrameFaultRatesRoughlyHonoured) {
  FaultPlan plan;
  plan.seed = 5;
  plan.e2.drop = 0.2;
  FaultInjector inj(plan);
  for (int i = 0; i < 2000; ++i) inj.next_frame_fault(plan.e2);
  EXPECT_GT(inj.stats().frames_dropped, 300u);
  EXPECT_LT(inj.stats().frames_dropped, 520u);
  EXPECT_EQ(inj.stats().frames_delayed, 0u);
  EXPECT_EQ(inj.stats().frames_corrupted, 0u);
}

TEST(FaultInjector, CorruptNeverReturnsInputUnchanged) {
  FaultPlan plan;
  plan.seed = 11;
  FaultInjector inj(plan);
  const std::string frame = oran::encode(oran::A1PolicySetup{3, 0.5, 10});
  for (int i = 0; i < 200; ++i) EXPECT_NE(inj.corrupt_frame(frame), frame);
  EXPECT_NE(inj.corrupt_frame("x"), "x");
}

TEST(FaultInjector, TelemetryTampering) {
  FaultPlan plan;
  plan.seed = 3;
  plan.telemetry = {.power_blank = 1.0};
  EXPECT_TRUE(std::isnan(FaultInjector(plan).tamper_power_w(50.0)));

  plan.telemetry = {.power_spike = 1.0, .spike_factor = 10.0};
  EXPECT_DOUBLE_EQ(FaultInjector(plan).tamper_power_w(50.0), 500.0);

  plan.telemetry = {.map_dropout = 1.0};
  EXPECT_TRUE(std::isnan(FaultInjector(plan).tamper_map(0.8)));

  plan.telemetry = {.delay_dropout = 1.0};
  FaultInjector inj(plan);
  EXPECT_TRUE(std::isnan(inj.tamper_delay_s(0.3)));
  EXPECT_EQ(inj.stats().delay_dropouts, 1u);
}

TEST(FaultInjector, ScheduledEventsCoverTheirWindow) {
  FaultPlan plan;
  plan.seed = 1;
  plan.events.push_back({EnvEventKind::kGpuThermalThrottle, 5, 3, 0.5});
  plan.events.push_back({EnvEventKind::kLoadSpike, 6, 1, 4.0});
  plan.events.push_back({EnvEventKind::kSnrBlackout, 20, 2, 15.0});
  FaultInjector inj(plan);

  EXPECT_FALSE(inj.perturbation_at(4).active());
  EXPECT_DOUBLE_EQ(inj.perturbation_at(5).gpu_speed_scale, 0.5);
  const EnvPerturbation both = inj.perturbation_at(6);  // overlap
  EXPECT_DOUBLE_EQ(both.gpu_speed_scale, 0.5);
  EXPECT_DOUBLE_EQ(both.load_multiplier, 4.0);
  EXPECT_DOUBLE_EQ(inj.perturbation_at(7).gpu_speed_scale, 0.5);
  EXPECT_FALSE(inj.perturbation_at(8).active());
  EXPECT_DOUBLE_EQ(inj.perturbation_at(21).snr_offset_db, 15.0);
  EXPECT_FALSE(inj.perturbation_at(22).active());
  EXPECT_EQ(inj.stats().event_periods, 4u);  // active queries: 5, 6, 7, 21
}

// ---- InterfaceFabric under injection -------------------------------------

TEST(InterfaceFabric, CleanFabricDeliversExactly) {
  oran::InterfaceFabric fabric("t");
  fabric.send("hello");
  const auto out = fabric.drain();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], "hello");
  EXPECT_EQ(fabric.messages_carried(), 1u);
  EXPECT_EQ(fabric.frames_dropped(), 0u);
}

TEST(InterfaceFabric, DropsEveryFrameAtRateOne) {
  FaultPlan plan;
  plan.seed = 2;
  FaultInjector inj(plan);
  oran::InterfaceFabric fabric("t");
  fabric.enable_faults(&inj, {.drop = 1.0});
  fabric.send("a");
  fabric.send("b");
  EXPECT_TRUE(fabric.drain().empty());
  EXPECT_EQ(fabric.frames_dropped(), 2u);
  EXPECT_EQ(fabric.messages_carried(), 0u);
}

TEST(InterfaceFabric, DelayHoldsFrameForNextTransmit) {
  FaultPlan plan;
  plan.seed = 2;
  FaultInjector inj(plan);
  oran::InterfaceFabric fabric("t");
  fabric.enable_faults(&inj, {.delay = 1.0});
  fabric.send("first");
  EXPECT_TRUE(fabric.drain().empty());
  fabric.send("second");  // "second" is itself delayed
  const auto out = fabric.drain();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], "first");
  EXPECT_EQ(fabric.frames_delayed(), 2u);
}

TEST(InterfaceFabric, DuplicateDeliversTwice) {
  FaultPlan plan;
  plan.seed = 2;
  FaultInjector inj(plan);
  oran::InterfaceFabric fabric("t");
  fabric.enable_faults(&inj, {.duplicate = 1.0});
  fabric.send("msg");
  const auto out = fabric.drain();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], "msg");
  EXPECT_EQ(out[1], "msg");
  EXPECT_EQ(fabric.frames_duplicated(), 1u);
  EXPECT_EQ(fabric.messages_carried(), 2u);
}

TEST(InterfaceFabric, CorruptMutatesPayload) {
  FaultPlan plan;
  plan.seed = 2;
  FaultInjector inj(plan);
  oran::InterfaceFabric fabric("t");
  fabric.enable_faults(&inj, {.corrupt = 1.0});
  fabric.send("{\"k\":1}");
  const auto out = fabric.drain();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NE(out[0], "{\"k\":1}");
  EXPECT_EQ(fabric.frames_corrupted(), 1u);
}

TEST(InterfaceFabric, DetachRestoresCleanDelivery) {
  FaultPlan plan;
  plan.seed = 2;
  FaultInjector inj(plan);
  oran::InterfaceFabric fabric("t");
  fabric.enable_faults(&inj, {.drop = 1.0});
  fabric.send("x");
  EXPECT_TRUE(fabric.drain().empty());
  fabric.enable_faults(nullptr, {});
  fabric.send("y");
  const auto out = fabric.drain();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], "y");
}

// ---- Control-plane resilience under injection ----------------------------

TEST(OranFaults, CorruptedE2FramesAreCountedAsRejects) {
  env::Testbed tb = env::make_static_testbed(35.0);
  oran::OranManagedTestbed managed(tb);
  FaultPlan plan;
  plan.seed = 4;
  plan.e2.corrupt = 1.0;
  FaultInjector inj(plan);
  managed.enable_fault_injection(&inj);

  env::ControlPolicy policy{0.8, 0.9, 0.9, 20};
  (void)managed.step(policy);
  EXPECT_GT(managed.near_rt().decode_rejects() +
                managed.env_node().decode_rejects(),
            0u);
  EXPECT_GT(managed.e2().down.frames_corrupted() +
                managed.e2().up.frames_corrupted(),
            0u);
}

TEST(OranFaults, DuplicateControlsAreIdempotent) {
  env::Testbed tb = env::make_static_testbed(35.0);
  oran::OranManagedTestbed managed(tb);
  FaultPlan plan;
  plan.seed = 4;
  plan.e2.duplicate = 1.0;
  FaultInjector inj(plan);
  managed.enable_fault_injection(&inj);

  env::ControlPolicy policy{0.8, 0.9, 0.9, 20};
  const env::Measurement m = managed.step(policy);
  EXPECT_GT(managed.duplicate_controls_ignored(), 0u);
  EXPECT_GT(managed.near_rt().stale_indications() +
                managed.non_rt().stale_reports(),
            0u);
  EXPECT_TRUE(std::isfinite(m.delay_s));
}

TEST(OranFaults, TotalA1LossDegradesInsteadOfThrowing) {
  env::Testbed tb = env::make_static_testbed(35.0);
  oran::OranManagedTestbed managed(tb);

  // First period clean, so a radio policy is in force.
  env::ControlPolicy policy{0.8, 0.9, 0.9, 20};
  (void)managed.step(policy);

  FaultPlan plan;
  plan.seed = 4;
  plan.a1.drop = 1.0;
  FaultInjector inj(plan);
  managed.enable_fault_injection(&inj);

  env::ControlPolicy next{0.6, 0.5, 0.7, 12};
  env::Measurement m{};
  EXPECT_NO_THROW(m = managed.step(next));
  EXPECT_EQ(managed.policy_delivery_failures(), 1u);
  EXPECT_FALSE(managed.non_rt().last_delivery().delivered);
  EXPECT_EQ(managed.non_rt().last_delivery().attempts, 4);
  EXPECT_TRUE(std::isfinite(m.delay_s));
}

TEST(OranFaults, TotalKpiLossSurfacesAsNanPower) {
  env::Testbed tb = env::make_static_testbed(35.0);
  oran::OranManagedTestbed managed(tb);
  FaultPlan plan;
  plan.seed = 4;
  plan.o1.drop = 1.0;
  FaultInjector inj(plan);
  managed.enable_fault_injection(&inj);

  env::ControlPolicy policy{0.8, 0.9, 0.9, 20};
  const env::Measurement m = managed.step(policy);
  EXPECT_EQ(managed.kpi_losses(), 1u);
  EXPECT_TRUE(std::isnan(m.bs_power_w));
  EXPECT_TRUE(std::isfinite(m.server_power_w));
}

TEST(OranFaults, RetryRecoversFromModerateLoss) {
  // 50% A1 loss on both the setup and the ack frame: one attempt succeeds
  // 25% of the time, eight attempts ~90%.
  env::Testbed tb = env::make_static_testbed(35.0);
  oran::OranManagedTestbed managed(tb, oran::NodeTimeouts{.a1_attempts = 8});
  FaultPlan plan;
  plan.seed = 21;
  plan.a1.drop = 0.5;
  FaultInjector inj(plan);
  managed.enable_fault_injection(&inj);

  int delivered = 0;
  env::ControlPolicy policy{0.8, 0.9, 0.9, 20};
  for (int t = 0; t < 20; ++t) {
    (void)managed.step(policy);
    delivered += managed.non_rt().last_delivery().delivered;
  }
  EXPECT_GE(delivered, 14);
}

TEST(OranFaults, LostE2AckIsNotADeliveryFailure) {
  // Every frame Env -> NearRT vanishes: the control lands at the O-eNB but
  // its ack (and the period's KPI indication) never comes back. The radio
  // policy is in force, so the period is not a delivery failure.
  env::Testbed tb = env::make_static_testbed(35.0);
  oran::OranManagedTestbed managed(tb);
  FaultPlan plan;
  plan.seed = 4;
  FaultInjector inj(plan);
  managed.e2().up.enable_faults(&inj, {.drop = 1.0});

  env::ControlPolicy policy{0.8, 0.9, 0.9, 20};
  const env::Measurement m = managed.step(policy);
  EXPECT_EQ(managed.env_node().controls_applied(), 1u);
  EXPECT_EQ(managed.near_rt().e2_apply_failures(), 1u);
  EXPECT_TRUE(managed.non_rt().last_delivery().delivered);
  EXPECT_EQ(managed.policy_delivery_failures(), 0u);
  EXPECT_EQ(managed.kpi_losses(), 1u);
  EXPECT_TRUE(std::isnan(m.bs_power_w));
}

}  // namespace
}  // namespace edgebol::fault
