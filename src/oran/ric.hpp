// Proof-of-concept RAN Intelligent Controllers and interface fabrics.
//
// Mirrors the paper's Fig. 7: the learning agent talks to rApps inside the
// Non-RT RIC; policies descend over A1-P to the Near-RT RIC's policy-service
// xApp, then over E2 to the O-eNB; vBS KPIs ascend over E2 to a database
// xApp and over O1 to a data-collector rApp. Every hop serializes the
// message through its JSON codec, so the plumbing carries exactly what a
// wire would (and tests can assert on it).

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "net/transport.hpp"
#include "oran/messages.hpp"

namespace edgebol::oran {

/// Implemented by the E2 node (the O-eNB / vBS adapter).
class E2Node {
 public:
  virtual ~E2Node() = default;
  virtual E2ControlAck handle_control(const E2ControlRequest&) = 0;
};

/// In-process fabric for one interface: counts messages, keeps an optional
/// bounded log of serialized frames for inspection, and — when a
/// FaultInjector is attached — subjects every offered frame to the plan's
/// drop/delay/duplicate/corrupt schedule. Consumers report undecodable
/// frames back through note_reject() so per-interface reject counts are
/// observable.
///
/// InterfaceFabric is the loopback implementation of net::Transport: the
/// same node roles that ride MuxTransport streams across processes run over
/// it unchanged in one process (send() delivers synchronously into the local
/// inbox read by drain()/receive()). The transmit() entry point predates
/// the Transport interface and remains for callers that want the delivered
/// frames inline.
class InterfaceFabric final : public net::Transport {
 public:
  explicit InterfaceFabric(std::string name, std::size_t max_log = 64);

  void record(const std::string& frame);

  /// Offer one frame for delivery. Returns the frames that actually arrive
  /// at the far end, in order.
  ///
  /// Ordering guarantee (pinned by test_oran "fabric delayed frame order"):
  /// frames delayed by an earlier transmit are delivered *before* any copy
  /// of the current frame — a delayed frame arrives exactly one delivery
  /// opportunity late and never overtakes a later send. Then come zero
  /// (dropped/delayed), one (clean or corrupted) or two (duplicated)
  /// copies of `frame`. Without an injector this is exactly {frame}.
  std::vector<std::string> transmit(const std::string& frame);

  /// Attach/detach fault injection with the given per-frame rates.
  void enable_faults(fault::FaultInjector* injector,
                     const fault::FrameFaultRates& rates);

  /// Simulate a hard partition of this hop: while set, every offered frame
  /// is dropped (counted separately from random drops) and frames already
  /// delayed stay parked; healing the partition releases them on the next
  /// transmit. Mirrors a MuxEndpoint partition window well enough for the
  /// orchestrator-level chaos tests to run in-process.
  void set_partitioned(bool on) { partitioned_ = on; }
  bool partitioned() const { return partitioned_; }

  /// Called by the consumer when a delivered frame failed to decode.
  void note_reject() { ++decode_rejects_; }

  // net::Transport: loopback semantics. send() runs the frame through
  // transmit() and queues the surviving copies on the local inbox.
  net::SendResult send(const std::string& frame) override;
  std::vector<std::string> drain() override;
  std::optional<std::string> receive(int timeout_ms) override;
  bool connected() const override { return !partitioned_; }
  const std::string& name() const override { return name_; }

  std::size_t messages_carried() const { return carried_; }
  std::size_t decode_rejects() const { return decode_rejects_; }
  std::size_t frames_dropped() const { return dropped_; }
  std::size_t frames_delayed() const { return delayed_; }
  std::size_t frames_duplicated() const { return duplicated_; }
  std::size_t frames_corrupted() const { return corrupted_; }
  std::size_t partition_drops() const { return partition_drops_; }
  const std::vector<std::string>& frame_log() const { return log_; }

 private:
  std::string name_;
  std::size_t max_log_;
  std::size_t carried_ = 0;
  std::size_t decode_rejects_ = 0;
  std::size_t dropped_ = 0;
  std::size_t delayed_ = 0;
  std::size_t duplicated_ = 0;
  std::size_t corrupted_ = 0;
  std::size_t partition_drops_ = 0;
  bool partitioned_ = false;
  std::vector<std::string> log_;
  std::vector<std::string> pending_;  // delayed frames awaiting delivery
  std::vector<std::string> inbox_;    // Transport-mode received frames
  fault::FaultInjector* injector_ = nullptr;
  fault::FrameFaultRates rates_{};
};

/// Retry schedule for policy delivery over a lossy control plane. Backoff
/// is simulated (accumulated into the DeliveryReport) rather than slept.
struct RetryPolicy {
  int max_attempts = 4;
  double base_backoff_ms = 10.0;
  double backoff_multiplier = 2.0;
};

/// Outcome surface of one reliable policy delivery.
struct DeliveryReport {
  std::int64_t policy_id = 0;
  bool delivered = false;   // a well-formed matching ack came back
  int attempts = 0;
  double backoff_ms = 0.0;  // total simulated backoff across retries
};

/// Near-RT RIC: hosts the policy-service xApp (A1 southbound -> E2) and the
/// database xApp (E2 indications -> O1 reports).
class NearRtRic {
 public:
  NearRtRic();

  void attach_e2_node(E2Node* node);
  bool has_e2_node() const { return node_ != nullptr; }

  /// A1-P policy create/update: validates, stores, forwards over E2, acks.
  A1PolicyAck handle_a1_policy(const A1PolicySetup& setup);

  /// A1-P policy delete: removes the stored instance. Returns false for an
  /// unknown id.
  bool handle_a1_delete(std::int64_t policy_id);

  /// A1-P policy query: the stored instance, if any.
  std::optional<A1PolicySetup> handle_a1_query(std::int64_t policy_id) const;

  std::size_t active_policy_count() const { return policies_.size(); }

  /// E2 indication from the vBS (KPI sample); forwarded over O1. Duplicate
  /// and stale (out-of-order) indications are deduplicated by sequence
  /// number in the database xApp.
  void handle_e2_indication(const E2KpiIndication& ind);

  void set_o1_sink(std::function<void(const O1KpiReport&)> sink);

  /// Subject the E2 and O1 hops to the injector's plan (nullptr detaches).
  void enable_fault_injection(fault::FaultInjector* injector);

  /// Partition / heal the E2 hop (see InterfaceFabric::set_partitioned):
  /// control pushes silently fail (node keeps its previous radio policy)
  /// and KPI indications never reach the database xApp.
  void set_e2_partitioned(bool on) { e2_.set_partitioned(on); }

  std::size_t stale_indications() const { return stale_indications_; }

  /// Validated A1 policies whose E2 push never got a successful node ack
  /// (the O-eNB kept running its previous radio policy).
  std::size_t e2_apply_failures() const { return e2_apply_failures_; }

  const InterfaceFabric& e2() const { return e2_; }
  const InterfaceFabric& o1() const { return o1_; }

 private:
  E2Node* node_ = nullptr;
  std::map<std::int64_t, A1PolicySetup> policies_;
  std::function<void(const O1KpiReport&)> o1_sink_;
  InterfaceFabric e2_{"E2"};
  InterfaceFabric o1_{"O1"};
  std::int64_t next_request_id_ = 1;
  std::int64_t last_forwarded_seq_ = 0;
  std::size_t stale_indications_ = 0;
  std::size_t e2_apply_failures_ = 0;
};

/// Non-RT RIC: hosts the policy-service rApp (A1 northbound client) and the
/// data-collector rApp that feeds KPIs to the learning agent.
class NonRtRic {
 public:
  explicit NonRtRic(NearRtRic& near_rt);

  /// rApp (policy service): deploy the radio policy through A1-P. Delivery
  /// is reliable: undecodable or lost frames (under fault injection) are
  /// retried with exponential backoff per the RetryPolicy, and duplicate
  /// deliveries are safe because policy application is idempotent. Returns
  /// the ack; the policy id used is retrievable via last_policy_id() and
  /// the transport outcome via last_delivery().
  A1PolicyAck deploy_radio_policy(double airtime, int mcs_cap);

  /// rApp: delete / query a previously deployed policy instance over A1-P.
  bool delete_radio_policy(std::int64_t policy_id);
  std::optional<A1PolicySetup> query_radio_policy(std::int64_t policy_id);
  std::int64_t last_policy_id() const { return next_policy_id_ - 1; }

  /// Transport outcome of the most recent deploy_radio_policy().
  const DeliveryReport& last_delivery() const { return last_delivery_; }
  void set_retry_policy(const RetryPolicy& retry) { retry_ = retry; }

  /// rApp (data collector): KPI samples that arrived over O1. Reports are
  /// deduplicated by sequence; stale (out-of-order) arrivals are counted
  /// and discarded.
  bool has_kpi() const { return !kpis_.empty(); }
  const O1KpiReport& latest_kpi() const;
  std::size_t kpi_count() const { return kpis_.size(); }
  std::size_t stale_reports() const { return stale_reports_; }

  /// Subject the A1-P hop to the injector's plan (nullptr detaches).
  void enable_fault_injection(fault::FaultInjector* injector);

  const InterfaceFabric& a1() const { return a1_; }

 private:
  void on_o1_report(const O1KpiReport& report);

  NearRtRic& near_rt_;
  InterfaceFabric a1_{"A1-P"};
  RetryPolicy retry_{};
  DeliveryReport last_delivery_{};
  std::vector<O1KpiReport> kpis_;
  std::int64_t next_policy_id_ = 1;
  std::size_t stale_reports_ = 0;
};

}  // namespace edgebol::oran
