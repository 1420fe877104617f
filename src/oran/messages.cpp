#include "oran/messages.hpp"

#include <cctype>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace edgebol::oran {

namespace {

// Minimal flat-JSON helpers: the messages are single-level objects of
// numbers/booleans, so a full JSON library is not warranted.

std::string json_object(
    std::initializer_list<std::pair<const char*, std::string>> fields) {
  std::ostringstream out;
  out << '{';
  bool first = true;
  for (const auto& [key, value] : fields) {
    if (!first) out << ',';
    first = false;
    out << '"' << key << "\":" << value;
  }
  out << '}';
  return out.str();
}

std::string num(double v) {
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

std::string num(std::int64_t v) { return std::to_string(v); }

std::string boolean(bool v) { return v ? "true" : "false"; }

/// Finds `"key":` in a flat JSON object and returns the raw value token.
std::string raw_value(const std::string& json, const std::string& key) {
  const std::string needle = '"' + key + '"';
  std::size_t pos = json.find(needle);
  if (pos == std::string::npos)
    throw std::invalid_argument("json: missing key '" + key + "'");
  pos += needle.size();
  while (pos < json.size() && std::isspace(static_cast<unsigned char>(json[pos])))
    ++pos;
  if (pos >= json.size() || json[pos] != ':')
    throw std::invalid_argument("json: malformed value for '" + key + "'");
  ++pos;
  while (pos < json.size() && std::isspace(static_cast<unsigned char>(json[pos])))
    ++pos;
  std::size_t end = pos;
  while (end < json.size() && json[end] != ',' && json[end] != '}') ++end;
  if (end == json.size())
    throw std::invalid_argument("json: unterminated value for '" + key + "'");
  std::string token = json.substr(pos, end - pos);
  while (!token.empty() &&
         std::isspace(static_cast<unsigned char>(token.back())))
    token.pop_back();
  if (token.empty())
    throw std::invalid_argument("json: empty value for '" + key + "'");
  return token;
}

double get_double(const std::string& json, const std::string& key) {
  const std::string token = raw_value(json, key);
  std::size_t used = 0;
  double v = 0.0;
  try {
    v = std::stod(token, &used);
  } catch (const std::exception&) {
    throw std::invalid_argument("json: non-numeric value for '" + key + "'");
  }
  if (used != token.size())
    throw std::invalid_argument("json: trailing junk in '" + key + "'");
  return v;
}

/// An integer field of type T. A value with a fractional part, or outside
/// T's range (converting such a double is undefined), is malformed.
template <typename T>
T get_int(const std::string& json, const std::string& key) {
  const double v = get_double(json, key);
  if (std::floor(v) != v)
    throw std::invalid_argument("json: non-integer value for '" + key + "'");
  constexpr double lo = static_cast<double>(std::numeric_limits<T>::min());
  if (!(v >= lo && v < -lo))  // [-2^(N-1), 2^(N-1)), exact in a double
    throw std::invalid_argument("json: out-of-range value for '" + key + "'");
  return static_cast<T>(v);
}

bool get_bool(const std::string& json, const std::string& key) {
  const std::string token = raw_value(json, key);
  if (token == "true") return true;
  if (token == "false") return false;
  throw std::invalid_argument("json: non-boolean value for '" + key + "'");
}

}  // namespace

std::string to_json(const A1PolicySetup& m) {
  return json_object({{"policy_id", num(m.policy_id)},
                      {"airtime", num(m.airtime)},
                      {"mcs_cap", num(static_cast<std::int64_t>(m.mcs_cap))}});
}

std::string to_json(const A1PolicyAck& m) {
  return json_object(
      {{"policy_id", num(m.policy_id)}, {"accepted", boolean(m.accepted)}});
}

std::string to_json(const E2ControlRequest& m) {
  return json_object({{"request_id", num(m.request_id)},
                      {"airtime", num(m.airtime)},
                      {"mcs_cap", num(static_cast<std::int64_t>(m.mcs_cap))}});
}

std::string to_json(const E2ControlAck& m) {
  return json_object(
      {{"request_id", num(m.request_id)}, {"success", boolean(m.success)}});
}

std::string to_json(const E2KpiIndication& m) {
  return json_object(
      {{"sequence", num(m.sequence)}, {"bs_power_w", num(m.bs_power_w)}});
}

std::string to_json(const O1KpiReport& m) {
  return json_object(
      {{"sequence", num(m.sequence)}, {"bs_power_w", num(m.bs_power_w)}});
}

std::string to_json(const EnvHello& m) {
  return json_object({{"n_users", num(static_cast<std::int64_t>(m.n_users))},
                      {"cqi_mean", num(m.cqi_mean)},
                      {"cqi_var", num(m.cqi_var)}});
}

std::string to_json(const EnvStepRequest& m) {
  return json_object({{"step_id", num(m.step_id)},
                      {"resolution", num(m.resolution)},
                      {"gpu_speed", num(m.gpu_speed)}});
}

std::string to_json(const EnvStepResult& m) {
  return json_object({{"step_id", num(m.step_id)},
                      {"delay_s", num(m.delay_s)},
                      {"map", num(m.map)},
                      {"server_power_w", num(m.server_power_w)},
                      {"n_users", num(static_cast<std::int64_t>(m.n_users))},
                      {"cqi_mean", num(m.cqi_mean)},
                      {"cqi_var", num(m.cqi_var)}});
}

A1PolicySetup a1_policy_setup_from_json(const std::string& j) {
  A1PolicySetup m;
  m.policy_id = get_int<std::int64_t>(j, "policy_id");
  m.airtime = get_double(j, "airtime");
  m.mcs_cap = get_int<int>(j, "mcs_cap");
  return m;
}

A1PolicyAck a1_policy_ack_from_json(const std::string& j) {
  A1PolicyAck m;
  m.policy_id = get_int<std::int64_t>(j, "policy_id");
  m.accepted = get_bool(j, "accepted");
  return m;
}

E2ControlRequest e2_control_request_from_json(const std::string& j) {
  E2ControlRequest m;
  m.request_id = get_int<std::int64_t>(j, "request_id");
  m.airtime = get_double(j, "airtime");
  m.mcs_cap = get_int<int>(j, "mcs_cap");
  return m;
}

E2ControlAck e2_control_ack_from_json(const std::string& j) {
  E2ControlAck m;
  m.request_id = get_int<std::int64_t>(j, "request_id");
  m.success = get_bool(j, "success");
  return m;
}

E2KpiIndication e2_kpi_indication_from_json(const std::string& j) {
  E2KpiIndication m;
  m.sequence = get_int<std::int64_t>(j, "sequence");
  m.bs_power_w = get_double(j, "bs_power_w");
  return m;
}

O1KpiReport o1_kpi_report_from_json(const std::string& j) {
  O1KpiReport m;
  m.sequence = get_int<std::int64_t>(j, "sequence");
  m.bs_power_w = get_double(j, "bs_power_w");
  return m;
}

EnvHello env_hello_from_json(const std::string& j) {
  EnvHello m;
  m.n_users = get_int<int>(j, "n_users");
  m.cqi_mean = get_double(j, "cqi_mean");
  m.cqi_var = get_double(j, "cqi_var");
  return m;
}

EnvStepRequest env_step_request_from_json(const std::string& j) {
  EnvStepRequest m;
  m.step_id = get_int<std::int64_t>(j, "step_id");
  m.resolution = get_double(j, "resolution");
  m.gpu_speed = get_double(j, "gpu_speed");
  return m;
}

EnvStepResult env_step_result_from_json(const std::string& j) {
  EnvStepResult m;
  m.step_id = get_int<std::int64_t>(j, "step_id");
  m.delay_s = get_double(j, "delay_s");
  m.map = get_double(j, "map");
  m.server_power_w = get_double(j, "server_power_w");
  m.n_users = get_int<int>(j, "n_users");
  m.cqi_mean = get_double(j, "cqi_mean");
  m.cqi_var = get_double(j, "cqi_var");
  return m;
}

namespace {

template <typename T>
std::optional<T> try_decode(T (*parse)(const std::string&),
                            const std::string& j) noexcept {
  try {
    return parse(j);
  } catch (...) {
    return std::nullopt;
  }
}

}  // namespace

std::optional<A1PolicySetup> try_a1_policy_setup_from_json(
    const std::string& j) noexcept {
  return try_decode(a1_policy_setup_from_json, j);
}

std::optional<A1PolicyAck> try_a1_policy_ack_from_json(
    const std::string& j) noexcept {
  return try_decode(a1_policy_ack_from_json, j);
}

std::optional<E2ControlRequest> try_e2_control_request_from_json(
    const std::string& j) noexcept {
  return try_decode(e2_control_request_from_json, j);
}

std::optional<E2ControlAck> try_e2_control_ack_from_json(
    const std::string& j) noexcept {
  return try_decode(e2_control_ack_from_json, j);
}

std::optional<E2KpiIndication> try_e2_kpi_indication_from_json(
    const std::string& j) noexcept {
  return try_decode(e2_kpi_indication_from_json, j);
}

std::optional<O1KpiReport> try_o1_kpi_report_from_json(
    const std::string& j) noexcept {
  return try_decode(o1_kpi_report_from_json, j);
}

std::optional<EnvHello> try_env_hello_from_json(const std::string& j) noexcept {
  return try_decode(env_hello_from_json, j);
}

std::optional<EnvStepRequest> try_env_step_request_from_json(
    const std::string& j) noexcept {
  return try_decode(env_step_request_from_json, j);
}

std::optional<EnvStepResult> try_env_step_result_from_json(
    const std::string& j) noexcept {
  return try_decode(env_step_result_from_json, j);
}

}  // namespace edgebol::oran
