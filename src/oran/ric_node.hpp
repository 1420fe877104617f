// Distributed node roles for the O-RAN message plane (one per Fig. 7 box).
//
// These classes are the one implementation of the A1/E2/O1 protocol. Each
// box can be its own process over MuxTransport streams (tools/ric_node), or
// all three can share one thread over in-process LoopbackLinks
// (OranManagedTestbed):
//
//   NonRtRicNode  (learner side)  -- A1-P client, O1 data collector, and
//                                    custom service-interface client. It
//                                    exposes context()/step() so
//                                    core::run_periods drives it like a
//                                    testbed.
//   NearRtRicNode (mid tier)      -- policy-service xApp (A1 southbound ->
//                                    E2) and database xApp (E2 indications
//                                    -> O1 reports).
//   EnvNode       (E2 node + env) -- the O-eNB/vBS adapter plus the edge
//                                    testbed and service controller.
//
// Links (each one net::Transport endpoint per side): a1 and o1 between
// NonRT and NearRT, e2 between NearRT and Env, svc (the paper's custom
// service interface) between NonRT and Env.
//
// Protocol: lock-step periods keyed by step_id. The learner (1) deploys the
// radio policy over A1 and waits for the ack — the near-RT RIC only acks a
// valid policy after its E2 push resolved, so a received ack means the
// O-eNB runs the new policy; (2) round-trips EnvStepRequest/Result over
// svc (the env dedups by step_id and resends the cached result, making
// retries idempotent); (3) waits for the O1 KPI report whose sequence
// equals the step_id. Every wait is bounded: lost policies degrade to the
// previously applied one, a lost KPI surfaces as a NaN BS-power sample for
// the learner's validation gate + watchdog, and only a dead environment
// (no step result after all retries) throws.
//
// Every frame is one message of the wire codec (oran/messages.hpp). Each
// handler decodes the type it expects; the links that carry two kinds (svc
// at the learner, e2 at the near-RT RIC and at the environment) try both,
// and the kind byte lets at most one match. A frame that decodes as
// neither is a counted decode reject, never a misparse.
//
// On identical seeds and timeout-free transports the three-process plane
// reproduces the single-thread OranManagedTestbed trajectory bit-for-bit:
// same policy/request/sequence id streams, and every double crosses the
// wire as its raw bits.
//
// Threading: each node instance is single-threaded (run()/step() from one
// thread); cross-node concurrency is the transports' problem. Counters are
// read after the owning thread stopped.

#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "env/testbed.hpp"
#include "net/transport.hpp"
#include "oran/apps.hpp"
#include "oran/messages.hpp"

namespace edgebol::oran {

/// Bounded waits for the lock-step protocol. Clean runs never hit them;
/// they are sized generously (whole-suite TSan runs are 5-20x slower than
/// real time) so a fired timeout always means genuine transport trouble.
/// With a null ReadySignal every wait is a single pass, so only the attempt
/// counts take effect.
struct NodeTimeouts {
  int a1_ack_ms = 4000;       // learner: deploy ack (covers near-RT's E2 wait)
  int a1_attempts = 4;        // learner: deploy attempts per period
  int e2_ack_ms = 1500;       // near-RT: E2 control ack before A1 ack
  int step_result_ms = 3000;  // learner: env step round trip, per attempt
  int step_attempts = 5;
  int o1_report_ms = 2000;    // learner: KPI report for the finished period
  int hello_ms = 250;         // learner: per-attempt hello round trip
  int hello_attempts = 120;
  int idle_poll_ms = 50;      // server loops: wait quantum between drains
};

/// Outcome surface of one reliable policy delivery.
struct DeliveryReport {
  std::int64_t policy_id = 0;
  bool delivered = false;  // a well-formed matching ack came back
  int attempts = 0;
};

/// Near-RT RIC process: forwards validated A1 policies over E2 (awaiting
/// the node ack) and pumps E2 KPI indications northbound over O1.
class NearRtRicNode {
 public:
  NearRtRicNode(net::Transport* a1, net::Transport* e2, net::Transport* o1,
                net::ReadySignal* ready, NodeTimeouts timeouts = {});

  /// Serve until `stop` is set. Call from the node's (only) thread.
  void run(const std::atomic<bool>& stop);

  /// Drain and handle everything currently pending (single pass).
  void poll_once();

  std::size_t policies_accepted() const { return policies_accepted_; }
  std::size_t policies_rejected() const { return policies_rejected_; }
  std::size_t e2_apply_failures() const { return e2_apply_failures_; }
  std::size_t indications_forwarded() const { return indications_forwarded_; }
  std::size_t stale_indications() const { return stale_indications_; }
  std::size_t decode_rejects() const { return decode_rejects_; }

 private:
  void handle_a1_frame(const std::string& frame);
  void handle_e2_frame(const std::string& frame,
                       std::optional<E2ControlAck>* captured_ack,
                       std::int64_t want_request_id);
  void handle_a1_setup(const A1PolicySetup& setup);
  bool push_e2_control(double airtime, int mcs_cap);
  void forward_indication(const E2KpiIndication& ind);

  net::Transport* a1_;
  net::Transport* e2_;
  net::Transport* o1_;
  net::ReadySignal* ready_;
  NodeTimeouts timeouts_;

  std::deque<std::string> deferred_a1_;  // A1 frames parked during E2 waits
  std::int64_t next_request_id_ = 1;
  std::int64_t last_forwarded_seq_ = 0;
  std::size_t policies_accepted_ = 0;
  std::size_t policies_rejected_ = 0;
  std::size_t e2_apply_failures_ = 0;
  std::size_t indications_forwarded_ = 0;
  std::size_t stale_indications_ = 0;
  std::size_t decode_rejects_ = 0;
};

/// Environment process: O-eNB adapter (E2 node) + edge testbed + service
/// controller. Owns nothing but a reference to the testbed.
class EnvNode {
 public:
  EnvNode(env::Testbed& testbed, net::Transport* e2, net::Transport* svc,
          net::ReadySignal* ready, NodeTimeouts timeouts = {});

  void run(const std::atomic<bool>& stop);
  void poll_once();

  std::size_t steps_run() const { return steps_run_; }
  std::size_t duplicate_steps() const { return duplicate_steps_; }
  std::size_t controls_applied() const { return controls_applied_; }
  std::size_t duplicate_controls() const { return duplicate_controls_; }
  std::size_t stale_controls() const { return stale_controls_; }
  std::size_t decode_rejects() const { return decode_rejects_; }

  /// Wall-clock ms from sending a KPI indication to the next radio-policy
  /// control landing — the bench harness's indication-to-policy latency.
  const std::vector<double>& indication_to_policy_ms() const {
    return indication_to_policy_ms_;
  }

 private:
  void handle_e2_frame(const std::string& frame);
  void handle_svc_frame(const std::string& frame);
  void handle_control(const E2ControlRequest& req);
  void handle_step(const EnvStepRequest& req);

  env::Testbed& testbed_;
  net::Transport* e2_;
  net::Transport* svc_;
  net::ReadySignal* ready_;
  NodeTimeouts timeouts_;
  ServiceController service_;

  double radio_airtime_ = 1.0;
  int radio_mcs_cap_ = 0;
  std::int64_t last_applied_request_id_ = 0;
  std::int64_t last_step_id_ = 0;
  std::string last_step_result_;  // cached frame, resent on duplicate step
  double last_indication_at_ms_ = -1.0;
  std::size_t steps_run_ = 0;
  std::size_t duplicate_steps_ = 0;
  std::size_t controls_applied_ = 0;
  std::size_t duplicate_controls_ = 0;
  std::size_t stale_controls_ = 0;
  std::size_t decode_rejects_ = 0;
  std::vector<double> indication_to_policy_ms_;
};

/// Learner-side node: a context()/step() facade over the A1/O1/svc links
/// for core::run_periods (no expected(): the testbed is remote).
class NonRtRicNode {
 public:
  NonRtRicNode(net::Transport* a1, net::Transport* o1, net::Transport* svc,
               net::ReadySignal* ready, NodeTimeouts timeouts = {});

  /// Obtain the initial context from the environment (retried hello).
  /// Must succeed before the first step(). Returns false on timeout.
  bool handshake();

  env::Context context() const { return context_; }

  /// One orchestration period through the distributed control plane. See
  /// the file comment for the protocol; throws std::runtime_error when the
  /// service knobs are invalid (before anything is sent), when a
  /// *delivered* A1 policy is rejected (invalid by validation) or when the
  /// environment never answers the step request.
  env::Measurement step(const env::ControlPolicy& policy);

  std::int64_t last_policy_id() const { return next_policy_id_ - 1; }
  const DeliveryReport& last_delivery() const { return last_delivery_; }

  std::size_t policy_delivery_failures() const {
    return policy_delivery_failures_;
  }
  std::size_t kpi_losses() const { return kpi_losses_; }
  std::size_t stale_reports() const { return stale_reports_; }
  std::size_t decode_rejects() const { return decode_rejects_; }

 private:
  void pump_links();
  /// Pump until `done` returns true or timeout_ms elapses. With a null
  /// ReadySignal this makes a single pass (synchronous loopback mode).
  template <typename Pred>
  bool await(Pred done, int timeout_ms);

  net::Transport* a1_;
  net::Transport* o1_;
  net::Transport* svc_;
  net::ReadySignal* ready_;
  NodeTimeouts timeouts_;

  env::Context context_{};
  bool have_context_ = false;
  std::vector<A1PolicyAck> a1_acks_;
  std::vector<EnvStepResult> step_results_;
  std::vector<O1KpiReport> o1_reports_;
  std::int64_t last_o1_seq_ = 0;
  std::int64_t next_policy_id_ = 1;
  std::int64_t next_step_id_ = 1;
  DeliveryReport last_delivery_{};
  std::size_t policy_delivery_failures_ = 0;
  std::size_t kpi_losses_ = 0;
  std::size_t stale_reports_ = 0;
  std::size_t decode_rejects_ = 0;
};

}  // namespace edgebol::oran
