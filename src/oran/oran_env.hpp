// The O-RAN-mediated environment: the learning agent's only view of the
// platform. Radio policies travel rApp -> A1-P -> xApp -> E2 -> O-eNB;
// service policies travel over the custom interface to the service
// controller; the BS power KPI returns O-eNB -> E2 -> xApp -> O1 -> rApp.
// Functionally equivalent to driving env::Testbed directly (tests assert
// this), but every control/feedback signal takes the standardized path.
//
// It is the three node roles of oran/ric_node.* on one thread: every link
// is a LoopbackLink, and a frame sent toward the Near-RT RIC (a1, e2 up) or
// the environment (e2 down, svc) runs that node's single pass before the
// send returns. The Non-RT RIC drives and is never pumped, so one step()
// is one lock-step period of the same protocol the three-process plane
// runs.
//
// Degraded modes (exercised under fault injection): when policy delivery
// fails even after the rApp's retries, the data plane keeps running on the
// last successfully applied radio policy; when the period's KPI never
// survives the E2/O1 path, the BS power field of the measurement is NaN —
// "no sample" — for the KPI validation gate upstream to reject.

#pragma once

#include <cstddef>

#include "env/testbed.hpp"
#include "fault/fault.hpp"
#include "oran/ric.hpp"
#include "oran/ric_node.hpp"

namespace edgebol::oran {

class OranManagedTestbed {
 public:
  /// Wraps (does not own) a testbed, wires the three node roles over
  /// loopback links and runs the learner's hello handshake.
  explicit OranManagedTestbed(env::Testbed& testbed,
                              NodeTimeouts timeouts = {});

  OranManagedTestbed(const OranManagedTestbed&) = delete;
  OranManagedTestbed& operator=(const OranManagedTestbed&) = delete;

  /// The learner's view of the context, as the last hello or step result
  /// carried it over svc.
  env::Context context() const { return non_rt_.context(); }

  /// One orchestration period: deploy the radio policy over A1/E2, run the
  /// period over svc, and deliver the KPI back through E2/O1.
  /// Throws std::runtime_error only if the policy is invalid: service knobs
  /// out of range (refused before anything is sent) or a *delivered* A1
  /// policy rejected; transport failures degrade (previous policy stays
  /// active) instead of throwing.
  env::Measurement step(const env::ControlPolicy& policy);

  /// The wrapped testbed's noise-free outcome of `policy` (never
  /// fault-injected; see env::Testbed::expected).
  env::Measurement expected(const env::ControlPolicy& policy) const {
    return testbed_.expected(policy);
  }

  /// Attach the injector's plan to the control-plane hops (a1 both ways,
  /// e2 both ways, o1 northbound; svc stays clean) and to the wrapped
  /// testbed's telemetry/environment path. nullptr detaches.
  void enable_fault_injection(fault::FaultInjector* injector);

  /// Partition / heal the E2 hop mid-run (chaos-under-reconnect tests):
  /// while partitioned, radio policies stop reaching the O-eNB and KPI
  /// indications stop reaching the data collector (BS power goes NaN).
  void set_e2_partitioned(bool on);

  /// Periods whose radio policy never reached the O-eNB (EnvNode applied no
  /// new control), so the period ran on the previously applied policy. A
  /// lost E2 ack alone is not a failure.
  std::size_t policy_delivery_failures() const {
    return policy_delivery_failures_;
  }
  /// Periods whose BS-power KPI never arrived at the data collector.
  std::size_t kpi_losses() const { return non_rt_.kpi_losses(); }
  /// Duplicate E2 control requests ignored by the idempotent apply.
  std::size_t duplicate_controls_ignored() const {
    return env_.duplicate_controls();
  }

  const NonRtRicNode& non_rt() const { return non_rt_; }
  const NearRtRicNode& near_rt() const { return near_rt_; }
  const EnvNode& env_node() const { return env_; }
  LoopbackLink& a1() { return a1_; }
  LoopbackLink& e2() { return e2_; }
  LoopbackLink& o1() { return o1_; }
  LoopbackLink& svc() { return svc_; }

 private:
  env::Testbed& testbed_;
  LoopbackLink a1_{"A1-P"};
  LoopbackLink e2_{"E2"};
  LoopbackLink o1_{"O1"};
  LoopbackLink svc_{"svc"};
  NearRtRicNode near_rt_;
  EnvNode env_;
  NonRtRicNode non_rt_;
  bool near_rt_busy_ = false;  // re-entry guards: a node mid-pass is not
  bool env_busy_ = false;      // pumped again; it drains on its own
  std::size_t policy_delivery_failures_ = 0;
};

}  // namespace edgebol::oran
