// O-RAN interface messages used by the EdgeBOL control path (Fig. 7).
//
// Three interfaces are modeled after the specifications the paper cites:
//   * A1-P (Policy Management Service, O-RAN.WG2.A1AP): the non-RT RIC's
//     rApp pushes radio policies (airtime, MCS cap) to the near-RT RIC.
//   * E2 (O-RAN.WG3.E2GAP): the near-RT RIC's xApp forwards control to the
//     O-eNB and receives KPI indications (BS power samples) back.
//   * O1: KPIs flow from the near-RT RIC up to the non-RT RIC / SMO.
// A1-P is JSON-over-REST in the specs, so these structs carry flat JSON
// codecs; E2AP is binary (ASN.1) in reality, but we reuse the same codec
// for wire-fidelity logging.

#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace edgebol::oran {

/// A1-P policy creation request (rApp -> near-RT RIC).
struct A1PolicySetup {
  std::int64_t policy_id = 0;
  double airtime = 1.0;
  int mcs_cap = 0;
};

/// A1-P response.
struct A1PolicyAck {
  std::int64_t policy_id = 0;
  bool accepted = false;
};

/// E2 RIC Control Request (xApp -> O-eNB).
struct E2ControlRequest {
  std::int64_t request_id = 0;
  double airtime = 1.0;
  int mcs_cap = 0;
};

/// E2 RIC Control Acknowledge.
struct E2ControlAck {
  std::int64_t request_id = 0;
  bool success = false;
};

/// E2 RIC Indication carrying a vBS KPI sample (BS power, in our study).
struct E2KpiIndication {
  std::int64_t sequence = 0;
  double bs_power_w = 0.0;
};

/// O1 performance report (near-RT RIC -> non-RT RIC / SMO).
struct O1KpiReport {
  std::int64_t sequence = 0;
  double bs_power_w = 0.0;
};

/// Service policy the service controller enforces (image resolution to the
/// user app, GPU power limit to the NVIDIA driver). Its knobs cross the
/// custom interface of Fig. 7 inside EnvStepRequest.
struct ServicePolicyRequest {
  double resolution = 1.0;
  double gpu_speed = 1.0;
};

// Custom service-interface messages for the distributed deployment (one
// process per Fig. 7 box). The environment process greets the learner with
// the initial context, then each orchestration period is one lock-step
// request/response pair keyed by step_id so duplicates and retries are
// idempotent.

/// Environment -> learner: initial context announcement.
struct EnvHello {
  int n_users = 0;
  double cqi_mean = 0.0;
  double cqi_var = 0.0;
};

/// Learner -> environment: run one orchestration period with these service
/// knobs (the radio knobs traveled separately over A1-P).
struct EnvStepRequest {
  std::int64_t step_id = 0;
  double resolution = 1.0;
  double gpu_speed = 1.0;
};

/// Environment -> learner: the period's measurement plus the next context.
struct EnvStepResult {
  std::int64_t step_id = 0;
  double delay_s = 0.0;
  double map = 0.0;
  double server_power_w = 0.0;
  int n_users = 0;
  double cqi_mean = 0.0;
  double cqi_var = 0.0;
};

// Flat-JSON codecs. to_json emits {"key":value,...}; the from_json parsers
// accept the corresponding object (whitespace-tolerant, order-insensitive)
// and throw std::invalid_argument on missing keys or malformed input,
// including an integer field whose value lies outside its C++ type.
std::string to_json(const A1PolicySetup&);
std::string to_json(const A1PolicyAck&);
std::string to_json(const E2ControlRequest&);
std::string to_json(const E2ControlAck&);
std::string to_json(const E2KpiIndication&);
std::string to_json(const O1KpiReport&);
std::string to_json(const EnvHello&);
std::string to_json(const EnvStepRequest&);
std::string to_json(const EnvStepResult&);

A1PolicySetup a1_policy_setup_from_json(const std::string&);
A1PolicyAck a1_policy_ack_from_json(const std::string&);
E2ControlRequest e2_control_request_from_json(const std::string&);
E2ControlAck e2_control_ack_from_json(const std::string&);
E2KpiIndication e2_kpi_indication_from_json(const std::string&);
O1KpiReport o1_kpi_report_from_json(const std::string&);
EnvHello env_hello_from_json(const std::string&);
EnvStepRequest env_step_request_from_json(const std::string&);
EnvStepResult env_step_result_from_json(const std::string&);

// Non-throwing decoders for wire-facing consumers: malformed or truncated
// frames yield std::nullopt instead of an exception, so a corrupted frame is
// a countable reject rather than a crash propagating through the fabric.
std::optional<A1PolicySetup> try_a1_policy_setup_from_json(
    const std::string&) noexcept;
std::optional<A1PolicyAck> try_a1_policy_ack_from_json(
    const std::string&) noexcept;
std::optional<E2ControlRequest> try_e2_control_request_from_json(
    const std::string&) noexcept;
std::optional<E2ControlAck> try_e2_control_ack_from_json(
    const std::string&) noexcept;
std::optional<E2KpiIndication> try_e2_kpi_indication_from_json(
    const std::string&) noexcept;
std::optional<O1KpiReport> try_o1_kpi_report_from_json(
    const std::string&) noexcept;
std::optional<EnvHello> try_env_hello_from_json(const std::string&) noexcept;
std::optional<EnvStepRequest> try_env_step_request_from_json(
    const std::string&) noexcept;
std::optional<EnvStepResult> try_env_step_result_from_json(
    const std::string&) noexcept;

}  // namespace edgebol::oran
