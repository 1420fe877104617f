#include "oran/ric_node.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <thread>

#include "ran/mcs_tables.hpp"

namespace edgebol::oran {

namespace {

std::int64_t steady_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool radio_policy_valid(double airtime, int mcs_cap) {
  return airtime > 0.0 && airtime <= 1.0 && mcs_cap >= 0 &&
         mcs_cap <= ran::kMaxUlMcs;
}

bool service_policy_valid(double resolution, double gpu_speed) {
  return resolution > 0.0 && resolution <= 1.0 && gpu_speed >= 0.0 &&
         gpu_speed <= 1.0;
}

}  // namespace

// ---------------------------------------------------------------------------
// NearRtRicNode

NearRtRicNode::NearRtRicNode(net::Transport* a1, net::Transport* e2,
                             net::Transport* o1, net::ReadySignal* ready,
                             NodeTimeouts timeouts)
    : a1_(a1), e2_(e2), o1_(o1), ready_(ready), timeouts_(timeouts) {}

void NearRtRicNode::run(const std::atomic<bool>& stop) {
  while (!stop.load(std::memory_order_acquire)) {
    poll_once();
    if (ready_ != nullptr) {
      ready_->wait(timeouts_.idle_poll_ms);
    } else {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(timeouts_.idle_poll_ms));
    }
  }
}

void NearRtRicNode::poll_once() {
  // A1 frames parked while an earlier policy awaited its E2 ack go first,
  // preserving deploy order.
  while (!deferred_a1_.empty()) {
    const std::string frame = std::move(deferred_a1_.front());
    deferred_a1_.pop_front();
    handle_a1_frame(frame);
  }
  for (const std::string& frame : a1_->drain()) handle_a1_frame(frame);
  for (const std::string& frame : e2_->drain()) {
    handle_e2_frame(frame, nullptr, 0);
  }
}

void NearRtRicNode::handle_a1_frame(const std::string& frame) {
  const auto setup = decode<A1PolicySetup>(frame);
  if (!setup) {
    ++decode_rejects_;
    return;
  }
  handle_a1_setup(*setup);
}

void NearRtRicNode::handle_a1_setup(const A1PolicySetup& setup) {
  A1PolicyAck ack;
  ack.policy_id = setup.policy_id;
  if (!radio_policy_valid(setup.airtime, setup.mcs_cap)) {
    ++policies_rejected_;
    ack.accepted = false;
    a1_->send(encode(ack));
    return;
  }
  // Push over E2 and wait for the node's ack *before* acking A1: once the
  // learner sees "accepted", the O-eNB is on the new policy (or the push
  // demonstrably failed and is tallied). A1 acceptance itself still means
  // "validated and stored" — transport trouble on E2 degrades rather than
  // masquerading as a validation reject.
  ++policies_accepted_;
  if (!push_e2_control(setup.airtime, setup.mcs_cap)) ++e2_apply_failures_;
  ack.accepted = true;
  a1_->send(encode(ack));
}

bool NearRtRicNode::push_e2_control(double airtime, int mcs_cap) {
  E2ControlRequest req;
  req.request_id = next_request_id_++;
  req.airtime = airtime;
  req.mcs_cap = mcs_cap;
  e2_->send(encode(req));

  const std::int64_t deadline = steady_ms() + timeouts_.e2_ack_ms;
  std::optional<E2ControlAck> ack;
  for (;;) {
    for (const std::string& frame : e2_->drain()) {
      handle_e2_frame(frame, &ack, req.request_id);
    }
    // New A1 requests arriving during the wait are deferred, not nested.
    for (std::string& frame : a1_->drain()) {
      deferred_a1_.push_back(std::move(frame));
    }
    if (ack) return ack->success;
    const std::int64_t remaining = deadline - steady_ms();
    if (remaining <= 0) return false;
    if (ready_ == nullptr) return false;  // synchronous mode: single pass
    ready_->wait(static_cast<int>(
        std::min<std::int64_t>(remaining, timeouts_.idle_poll_ms)));
  }
}

void NearRtRicNode::handle_e2_frame(const std::string& frame,
                                    std::optional<E2ControlAck>* captured_ack,
                                    std::int64_t want_request_id) {
  if (const auto ind = decode<E2KpiIndication>(frame)) {
    forward_indication(*ind);
    return;
  }
  if (const auto ack = decode<E2ControlAck>(frame)) {
    // Acks for earlier (retried/duplicated) requests are stale; ignore.
    if (captured_ack != nullptr && ack->request_id == want_request_id) {
      *captured_ack = *ack;
    }
    return;
  }
  ++decode_rejects_;
}

void NearRtRicNode::forward_indication(const E2KpiIndication& ind) {
  // Database xApp: deduplicate by sequence, then forward northbound.
  if (ind.sequence <= last_forwarded_seq_) {
    ++stale_indications_;
    return;
  }
  last_forwarded_seq_ = ind.sequence;
  O1KpiReport report;
  report.sequence = ind.sequence;
  report.bs_power_w = ind.bs_power_w;
  o1_->send(encode(report));
  ++indications_forwarded_;
}

// ---------------------------------------------------------------------------
// EnvNode

EnvNode::EnvNode(env::Testbed& testbed, net::Transport* e2,
                 net::Transport* svc, net::ReadySignal* ready,
                 NodeTimeouts timeouts)
    : testbed_(testbed),
      e2_(e2),
      svc_(svc),
      ready_(ready),
      timeouts_(timeouts) {
  radio_mcs_cap_ = ran::kMaxUlMcs;
}

void EnvNode::run(const std::atomic<bool>& stop) {
  while (!stop.load(std::memory_order_acquire)) {
    poll_once();
    if (ready_ != nullptr) {
      ready_->wait(timeouts_.idle_poll_ms);
    } else {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(timeouts_.idle_poll_ms));
    }
  }
}

void EnvNode::poll_once() {
  for (const std::string& frame : e2_->drain()) handle_e2_frame(frame);
  for (const std::string& frame : svc_->drain()) handle_svc_frame(frame);
}

void EnvNode::handle_e2_frame(const std::string& frame) {
  const auto req = decode<E2ControlRequest>(frame);
  if (!req) {
    ++decode_rejects_;
    return;
  }
  handle_control(*req);
}

void EnvNode::handle_control(const E2ControlRequest& req) {
  E2ControlAck ack;
  ack.request_id = req.request_id;
  if (req.request_id == last_applied_request_id_) {
    // Idempotent apply: a duplicated request is re-acked without touching
    // the data plane.
    ++duplicate_controls_;
    ack.success = true;
  } else if (req.request_id < last_applied_request_id_) {
    // A reordered (chaos-held) control from an earlier period must never
    // roll the radio policy back; nack it so nobody mistakes it for state.
    ++stale_controls_;
    ack.success = false;
  } else if (!radio_policy_valid(req.airtime, req.mcs_cap)) {
    ack.success = false;
  } else {
    radio_airtime_ = req.airtime;
    radio_mcs_cap_ = req.mcs_cap;
    last_applied_request_id_ = req.request_id;
    ++controls_applied_;
    ack.success = true;
    if (last_indication_at_ms_ >= 0.0) {
      indication_to_policy_ms_.push_back(
          static_cast<double>(steady_ms()) - last_indication_at_ms_);
      last_indication_at_ms_ = -1.0;
    }
  }
  e2_->send(encode(ack));
}

void EnvNode::handle_svc_frame(const std::string& frame) {
  if (decode<EnvHelloRequest>(frame)) {
    svc_->send(encode(EnvHello{testbed_.context()}));
    return;
  }
  if (const auto req = decode<EnvStepRequest>(frame)) {
    handle_step(*req);
    return;
  }
  ++decode_rejects_;
}

void EnvNode::handle_step(const EnvStepRequest& req) {
  if (req.step_id == last_step_id_ && !last_step_result_.empty()) {
    // Lost-result retry: resend the cached result, don't re-run the period.
    ++duplicate_steps_;
    svc_->send(last_step_result_);
    return;
  }
  if (req.step_id < last_step_id_) {
    ++duplicate_steps_;  // stale replay of an older period
    return;
  }
  if (!service_policy_valid(req.resolution, req.gpu_speed)) {
    // A corrupted frame fails decode<T>, so these are invalid knobs from
    // the learner; the request is dropped unanswered.
    ++decode_rejects_;
    return;
  }

  ServicePolicyRequest svc;
  svc.resolution = req.resolution;
  svc.gpu_speed = req.gpu_speed;
  service_.apply(svc);

  // Run the period under whatever the data plane actually has: the service
  // knobs just applied, the radio knobs from the last E2 control.
  env::ControlPolicy enforced;
  enforced.airtime = radio_airtime_;
  enforced.mcs_cap = radio_mcs_cap_;
  enforced.resolution = service_.resolution();
  enforced.gpu_speed = service_.gpu_speed();
  const env::Measurement m = testbed_.step(enforced);
  ++steps_run_;

  // KPI indication first (sequence == step id), then the step result; the
  // learner waits on both, so relative link order does not matter.
  E2KpiIndication ind;
  ind.sequence = req.step_id;
  ind.bs_power_w = m.bs_power_w;
  e2_->send(encode(ind));
  last_indication_at_ms_ = static_cast<double>(steady_ms());

  EnvStepResult result;
  result.step_id = req.step_id;
  result.delay_s = m.delay_s;
  result.map = m.map;
  result.server_power_w = m.server_power_w;
  result.ctx = testbed_.context();
  last_step_id_ = req.step_id;
  last_step_result_ = encode(result);
  svc_->send(last_step_result_);
}

// ---------------------------------------------------------------------------
// NonRtRicNode

NonRtRicNode::NonRtRicNode(net::Transport* a1, net::Transport* o1,
                           net::Transport* svc, net::ReadySignal* ready,
                           NodeTimeouts timeouts)
    : a1_(a1), o1_(o1), svc_(svc), ready_(ready), timeouts_(timeouts) {}

void NonRtRicNode::pump_links() {
  for (const std::string& frame : a1_->drain()) {
    const auto ack = decode<A1PolicyAck>(frame);
    if (!ack) {
      ++decode_rejects_;
      continue;
    }
    a1_acks_.push_back(*ack);
  }
  for (const std::string& frame : o1_->drain()) {
    const auto report = decode<O1KpiReport>(frame);
    if (!report) {
      ++decode_rejects_;
      continue;
    }
    // Data collector: keep the report stream monotone in sequence.
    if (report->sequence <= last_o1_seq_) {
      ++stale_reports_;
      continue;
    }
    last_o1_seq_ = report->sequence;
    o1_reports_.push_back(*report);
  }
  for (const std::string& frame : svc_->drain()) {
    if (const auto hello = decode<EnvHello>(frame)) {
      context_ = hello->ctx;
      have_context_ = true;
    } else if (const auto result = decode<EnvStepResult>(frame)) {
      step_results_.push_back(*result);
    } else {
      ++decode_rejects_;
    }
  }
}

template <typename Pred>
bool NonRtRicNode::await(Pred done, int timeout_ms) {
  const std::int64_t deadline = steady_ms() + timeout_ms;
  for (;;) {
    pump_links();
    if (done()) return true;
    if (ready_ == nullptr) return false;  // synchronous loopback: one pass
    const std::int64_t remaining = deadline - steady_ms();
    if (remaining <= 0) return false;
    ready_->wait(static_cast<int>(std::min<std::int64_t>(remaining, 100)));
  }
}

bool NonRtRicNode::handshake() {
  for (int attempt = 0; attempt < timeouts_.hello_attempts; ++attempt) {
    svc_->send(encode(EnvHelloRequest{}));
    if (await([this] { return have_context_; }, timeouts_.hello_ms)) {
      return true;
    }
  }
  return have_context_;
}

env::Measurement NonRtRicNode::step(const env::ControlPolicy& policy) {
  if (!have_context_) {
    throw std::logic_error("NonRtRicNode: step() before handshake()");
  }
  // The environment drops a step request with invalid service knobs
  // unanswered (EnvNode::handle_step), so refuse them here, before any A1 or
  // svc frame goes out, the way a rejected radio policy surfaces.
  if (!service_policy_valid(policy.resolution, policy.gpu_speed)) {
    throw std::runtime_error(
        "NonRtRicNode: service policy invalid (resolution outside (0, 1] or "
        "GPU speed outside [0, 1])");
  }

  // 1. Radio policy over A1-P, reliable-with-retries (up to
  //    NodeTimeouts::a1_attempts; the backoff is the real ack wait).
  A1PolicySetup setup;
  setup.policy_id = next_policy_id_++;
  setup.airtime = policy.airtime;
  setup.mcs_cap = policy.mcs_cap;
  const bool locally_valid =
      radio_policy_valid(setup.airtime, setup.mcs_cap);

  DeliveryReport rep;
  rep.policy_id = setup.policy_id;
  A1PolicyAck ack{};
  for (int attempt = 0; attempt < timeouts_.a1_attempts; ++attempt) {
    ++rep.attempts;
    a1_->send(encode(setup));
    bool got_ack = false;
    await(
        [&] {
          for (const A1PolicyAck& a : a1_acks_) {
            if (a.policy_id == setup.policy_id) {
              ack = a;
              got_ack = true;
            }
          }
          return got_ack;
        },
        timeouts_.a1_ack_ms);
    a1_acks_.clear();  // everything buffered is ours or older: consumed
    if (!got_ack) continue;
    // A reject of a locally-valid setup can only mean in-flight corruption
    // that still parsed; retry instead of surfacing a phantom validation
    // failure.
    if (!ack.accepted && locally_valid) continue;
    rep.delivered = true;
    break;
  }
  last_delivery_ = rep;
  if (rep.delivered && !ack.accepted) {
    throw std::runtime_error("NonRtRicNode: A1 policy rejected");
  }
  if (!rep.delivered) {
    // Degrade: the O-eNB keeps its previous radio policy this period.
    ++policy_delivery_failures_;
  }

  // 2. Service knobs + period execution over the custom interface. The env
  //    dedups by step_id and resends its cached result, so retries are
  //    idempotent; only a truly dead environment exhausts the attempts.
  EnvStepRequest req;
  req.step_id = next_step_id_++;
  req.resolution = policy.resolution;
  req.gpu_speed = policy.gpu_speed;
  std::optional<EnvStepResult> result;
  for (int attempt = 0; attempt < timeouts_.step_attempts && !result;
       ++attempt) {
    svc_->send(encode(req));
    await(
        [&] {
          for (const EnvStepResult& r : step_results_) {
            if (r.step_id == req.step_id) result = r;
          }
          return result.has_value();
        },
        timeouts_.step_result_ms);
  }
  step_results_.clear();
  if (!result) {
    throw std::runtime_error(
        "NonRtRicNode: environment unreachable (no step result for step " +
        std::to_string(req.step_id) + ")");
  }

  // 3. This period's KPI over O1 (sequence == step id). A missing sample
  //    becomes NaN — "no reading" — for the KPI gate + watchdog upstream.
  std::optional<O1KpiReport> report;
  await(
      [&] {
        for (const O1KpiReport& r : o1_reports_) {
          if (r.sequence == req.step_id) report = r;
        }
        return report.has_value();
      },
      timeouts_.o1_report_ms);
  o1_reports_.erase(
      std::remove_if(o1_reports_.begin(), o1_reports_.end(),
                     [&](const O1KpiReport& r) {
                       return r.sequence <= req.step_id;
                     }),
      o1_reports_.end());
  double bs_power = std::numeric_limits<double>::quiet_NaN();
  if (report) {
    bs_power = report->bs_power_w;
  } else {
    ++kpi_losses_;
  }

  context_ = result->ctx;

  env::Measurement m;
  m.delay_s = result->delay_s;
  m.map = result->map;
  m.server_power_w = result->server_power_w;
  m.bs_power_w = bs_power;
  return m;
}

}  // namespace edgebol::oran
