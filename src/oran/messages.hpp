// O-RAN interface messages used by the EdgeBOL control path (Fig. 7), and
// the one wire codec both control planes speak.
//
// Three interfaces are modeled after the specifications the paper cites:
//   * A1-P (Policy Management Service, O-RAN.WG2.A1AP): the non-RT RIC's
//     rApp pushes radio policies (airtime, MCS cap) to the near-RT RIC.
//   * E2 (O-RAN.WG3.E2GAP): the near-RT RIC's xApp forwards control to the
//     O-eNB and receives KPI indications (BS power samples) back.
//   * O1: KPIs flow from the near-RT RIC up to the non-RT RIC / SMO.
// The single-cell plane (oran/ric_node.*) adds the custom service
// interface between the learner and the environment; the fleet plane
// (oran/fleet_plane.*) carries one indication/policy pair per cell period.
//
// Codec. Every wire message is described once, by its Wire<T> table: a
// kind byte, a name, and its fields as (name, member pointer) pairs in wire
// order. Records nested in a message (env::Context, env::ControlPolicy, the
// four KPIs of env::Measurement) have tables of their own. encode(),
// decode<T>(), kWireBytes<T> and describe() are generated from the tables.
// A frame is
//
//   kind byte | each field in table order, fixed width | FNV-1a-32 trailer
//
// Integers and doubles are their host-endian bytes (a double is its raw
// IEEE-754 bits, so it decodes to exactly the bits that were encoded —
// the property the bit-identical trajectory gates rest on); a bool is one
// byte, 0 or 1. The trailer hashes every byte before it. Each FNV-1a step
// (xor a byte, multiply by an odd constant mod 2^32) is a bijection of the
// hash state, so a frame with any one byte substituted fails its trailer;
// a truncated or spliced frame fails the exact-size check. Both ends are
// builds of this repo on the same host architecture; the codec asserts
// nothing beyond that (no cross-endian support; DESIGN.md §5f).
//
// decode<T> accepts only a frame of exactly kWireBytes<T> bytes carrying
// T's kind byte, a matching trailer and bool bytes of 0 or 1; anything else
// is std::nullopt, a countable reject at the receiving node.

#pragma once

#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>

#include "env/context.hpp"
#include "env/policy.hpp"
#include "env/testbed.hpp"

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
// process per Fig. 7 box). The learner asks the environment for the initial
// context, then each orchestration period is one lock-step
// request/response pair keyed by step_id so duplicates and retries are
// idempotent.

/// Learner -> environment: "announce your context".
struct EnvHelloRequest {};

/// Environment -> learner: initial context announcement.
struct EnvHello {
  env::Context ctx{};
};

/// Learner -> environment: run one orchestration period with these service
/// knobs (the radio knobs traveled separately over A1-P).
struct EnvStepRequest {
  std::int64_t step_id = 0;
  double resolution = 1.0;
  double gpu_speed = 1.0;
};

/// Environment -> learner: the period's measurement (the BS power travels
/// over E2/O1 instead) plus the next context.
struct EnvStepResult {
  std::int64_t step_id = 0;
  double delay_s = 0.0;
  double map = 0.0;
  double server_power_w = 0.0;
  env::Context ctx{};
};

// Fleet-plane messages (oran/fleet_plane.hpp): one cell's E2-style loop.

/// Cell -> RIC: "decide my next period" plus the previous period's outcome.
/// The first indication of a cell's life has has_feedback = false.
struct FleetIndication {
  std::int64_t period = 0;     // cell-local period counter (idempotency key)
  env::Context ctx{};          // context to decide under
  bool has_feedback = false;   // fields below are valid
  std::uint64_t policy_index = 0;  // arm chosen for the previous period
  env::Context prev_ctx{};         // context that decision was made under
  env::Measurement meas{};         // previous period's outcome (4 KPI fields
                                   // cross the wire; diagnostics stay local)
};

/// RIC -> cell: the decision for `period`.
struct FleetPolicy {
  std::int64_t period = 0;
  std::uint64_t policy_index = 0;
  env::ControlPolicy policy{};
};

// --- field tables ------------------------------------------------------

/// One table entry: the field's name in describe() output and the member
/// it is read from and written to.
template <typename M, typename V>
struct Field {
  using Value = V;
  std::string_view name;
  V M::*member;
};

template <typename M, typename V>
constexpr Field<M, V> field(std::string_view name, V M::*member) {
  return {name, member};
}

/// The wire table of T. The primary template is empty: T is a scalar
/// (std::int64_t, std::uint64_t, int, double or bool). A record nested in
/// messages has kFields; a message also has its kind byte, kTag, and the
/// kName that starts its describe() text.
template <typename T>
struct Wire {};

template <>
struct Wire<env::Context> {
  static constexpr auto kFields =
      std::make_tuple(field("n_users", &env::Context::n_users),
                      field("cqi_mean", &env::Context::cqi_mean),
                      field("cqi_var", &env::Context::cqi_var));
};

template <>
struct Wire<env::ControlPolicy> {
  static constexpr auto kFields =
      std::make_tuple(field("resolution", &env::ControlPolicy::resolution),
                      field("airtime", &env::ControlPolicy::airtime),
                      field("gpu_speed", &env::ControlPolicy::gpu_speed),
                      field("mcs_cap", &env::ControlPolicy::mcs_cap));
};

/// The four KPIs only; the diagnostics never leave the cell.
template <>
struct Wire<env::Measurement> {
  static constexpr auto kFields = std::make_tuple(
      field("delay_s", &env::Measurement::delay_s),
      field("map", &env::Measurement::map),
      field("server_power_w", &env::Measurement::server_power_w),
      field("bs_power_w", &env::Measurement::bs_power_w));
};

template <>
struct Wire<A1PolicySetup> {
  static constexpr char kTag = 'A';
  static constexpr std::string_view kName = "a1_setup";
  static constexpr auto kFields =
      std::make_tuple(field("policy_id", &A1PolicySetup::policy_id),
                      field("airtime", &A1PolicySetup::airtime),
                      field("mcs_cap", &A1PolicySetup::mcs_cap));
};

template <>
struct Wire<A1PolicyAck> {
  static constexpr char kTag = 'a';
  static constexpr std::string_view kName = "a1_ack";
  static constexpr auto kFields =
      std::make_tuple(field("policy_id", &A1PolicyAck::policy_id),
                      field("accepted", &A1PolicyAck::accepted));
};

template <>
struct Wire<E2ControlRequest> {
  static constexpr char kTag = 'C';
  static constexpr std::string_view kName = "e2_ctrl";
  static constexpr auto kFields =
      std::make_tuple(field("request_id", &E2ControlRequest::request_id),
                      field("airtime", &E2ControlRequest::airtime),
                      field("mcs_cap", &E2ControlRequest::mcs_cap));
};

template <>
struct Wire<E2ControlAck> {
  static constexpr char kTag = 'c';
  static constexpr std::string_view kName = "e2_ctrl_ack";
  static constexpr auto kFields =
      std::make_tuple(field("request_id", &E2ControlAck::request_id),
                      field("success", &E2ControlAck::success));
};

template <>
struct Wire<E2KpiIndication> {
  static constexpr char kTag = 'K';
  static constexpr std::string_view kName = "e2_kpi";
  static constexpr auto kFields =
      std::make_tuple(field("sequence", &E2KpiIndication::sequence),
                      field("bs_power_w", &E2KpiIndication::bs_power_w));
};

template <>
struct Wire<O1KpiReport> {
  static constexpr char kTag = 'O';
  static constexpr std::string_view kName = "o1_report";
  static constexpr auto kFields =
      std::make_tuple(field("sequence", &O1KpiReport::sequence),
                      field("bs_power_w", &O1KpiReport::bs_power_w));
};

template <>
struct Wire<EnvHelloRequest> {
  static constexpr char kTag = 'H';
  static constexpr std::string_view kName = "hello_req";
  static constexpr auto kFields = std::make_tuple();
};

template <>
struct Wire<EnvHello> {
  static constexpr char kTag = 'h';
  static constexpr std::string_view kName = "env_hello";
  static constexpr auto kFields = std::make_tuple(field("ctx", &EnvHello::ctx));
};

template <>
struct Wire<EnvStepRequest> {
  static constexpr char kTag = 'T';
  static constexpr std::string_view kName = "env_step";
  static constexpr auto kFields =
      std::make_tuple(field("step_id", &EnvStepRequest::step_id),
                      field("resolution", &EnvStepRequest::resolution),
                      field("gpu_speed", &EnvStepRequest::gpu_speed));
};

template <>
struct Wire<EnvStepResult> {
  static constexpr char kTag = 't';
  static constexpr std::string_view kName = "env_step_result";
  static constexpr auto kFields = std::make_tuple(
      field("step_id", &EnvStepResult::step_id),
      field("delay_s", &EnvStepResult::delay_s),
      field("map", &EnvStepResult::map),
      field("server_power_w", &EnvStepResult::server_power_w),
      field("ctx", &EnvStepResult::ctx));
};

template <>
struct Wire<FleetIndication> {
  static constexpr char kTag = 'I';
  static constexpr std::string_view kName = "fleet_indication";
  static constexpr auto kFields = std::make_tuple(
      field("period", &FleetIndication::period),
      field("ctx", &FleetIndication::ctx),
      field("has_feedback", &FleetIndication::has_feedback),
      field("policy_index", &FleetIndication::policy_index),
      field("prev_ctx", &FleetIndication::prev_ctx),
      field("meas", &FleetIndication::meas));
};

template <>
struct Wire<FleetPolicy> {
  static constexpr char kTag = 'P';
  static constexpr std::string_view kName = "fleet_policy";
  static constexpr auto kFields =
      std::make_tuple(field("period", &FleetPolicy::period),
                      field("policy_index", &FleetPolicy::policy_index),
                      field("policy", &FleetPolicy::policy));
};

/// Every wire message; describe_frame() tries each in turn.
using WireMessages =
    std::tuple<A1PolicySetup, A1PolicyAck, E2ControlRequest, E2ControlAck,
               E2KpiIndication, O1KpiReport, EnvHelloRequest, EnvHello,
               EnvStepRequest, EnvStepResult, FleetIndication, FleetPolicy>;

template <typename T>
concept WireRecord = requires { Wire<T>::kFields; };

template <typename T>
concept WireMessage = WireRecord<T> && requires {
  Wire<T>::kTag;
  Wire<T>::kName;
};

// --- the codec -----------------------------------------------------------

inline constexpr std::size_t kTrailerBytes = 4;

/// 32-bit FNV-1a over `bytes`: the frame trailer.
constexpr std::uint32_t fnv1a(std::string_view bytes) {
  std::uint32_t h = 2166136261u;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 16777619u;
  }
  return h;
}

namespace wire_detail {

static_assert(sizeof(bool) == 1 && std::numeric_limits<double>::is_iec559);

template <typename V>
constexpr std::size_t value_bytes() {
  if constexpr (WireRecord<V>) {
    return std::apply(
        [](const auto&... f) {
          return (std::size_t{0} + ... +
                  value_bytes<typename std::remove_cvref_t<
                      decltype(f)>::Value>());
        },
        Wire<V>::kFields);
  } else {
    static_assert(std::is_arithmetic_v<V>, "field type has no wire table");
    return sizeof(V);
  }
}

template <typename V>
char* put(const V& v, char* p) {
  if constexpr (WireRecord<V>) {
    std::apply([&](const auto&... f) { ((p = put(v.*f.member, p)), ...); },
               Wire<V>::kFields);
    return p;
  } else if constexpr (std::is_same_v<V, bool>) {
    *p = v ? 1 : 0;
    return p + 1;
  } else {
    std::memcpy(p, &v, sizeof v);
    return p + sizeof v;
  }
}

/// False on a bool byte other than 0 or 1. A bool is read as a byte, never
/// copied into a bool's storage: a stored 2 would be undefined.
template <typename V>
bool get(V* v, const char*& p) {
  if constexpr (WireRecord<V>) {
    return std::apply(
        [&](const auto&... f) { return (get(&(v->*f.member), p) && ...); },
        Wire<V>::kFields);
  } else if constexpr (std::is_same_v<V, bool>) {
    const auto b = static_cast<unsigned char>(*p++);
    *v = b == 1;
    return b <= 1;
  } else {
    std::memcpy(v, p, sizeof *v);
    p += sizeof *v;
    return true;
  }
}

void append_value(std::string* out, double v);
void append_value(std::string* out, std::int64_t v);
void append_value(std::string* out, std::uint64_t v);
void append_value(std::string* out, int v);
void append_value(std::string* out, bool v);

template <typename V>
void describe_fields(std::string* out, const std::string& prefix,
                     const V& v);

template <typename V>
void describe_value(std::string* out, const std::string& prefix,
                    std::string_view name, const V& value) {
  if constexpr (WireRecord<V>) {
    describe_fields(out, prefix + std::string(name) + '.', value);
  } else {
    *out += ' ';
    *out += prefix;
    *out += name;
    *out += '=';
    append_value(out, value);
  }
}

template <typename V>
void describe_fields(std::string* out, const std::string& prefix,
                     const V& v) {
  std::apply(
      [&](const auto&... f) {
        (describe_value(out, prefix, f.name, v.*f.member), ...);
      },
      Wire<V>::kFields);
}

}  // namespace wire_detail

/// Exact frame size of T, kind byte and trailer included.
template <WireMessage T>
inline constexpr std::size_t kWireBytes =
    1 + wire_detail::value_bytes<T>() + kTrailerBytes;

/// Encode into *out, reusing its capacity.
template <WireMessage T>
void encode(const T& m, std::string* out) {
  constexpr std::size_t n = kWireBytes<T>;
  out->resize(n);
  char* p = out->data();
  *p = Wire<T>::kTag;
  p = wire_detail::put(m, p + 1);
  const std::uint32_t h = fnv1a({out->data(), n - kTrailerBytes});
  std::memcpy(p, &h, sizeof h);
}

template <WireMessage T>
std::string encode(const T& m) {
  std::string out;
  encode(m, &out);
  return out;
}

/// The message in `frame`, or std::nullopt unless the frame has exactly
/// kWireBytes<T> bytes, T's kind byte, bool bytes of 0 or 1 and a matching
/// trailer.
template <WireMessage T>
std::optional<T> decode(std::string_view frame) {
  constexpr std::size_t n = kWireBytes<T>;
  if (frame.size() != n || frame[0] != Wire<T>::kTag) return std::nullopt;
  std::uint32_t h = 0;
  std::memcpy(&h, frame.data() + n - kTrailerBytes, sizeof h);
  if (h != fnv1a(frame.substr(0, n - kTrailerBytes))) return std::nullopt;
  T m{};
  const char* p = frame.data() + 1;
  if (!wire_detail::get(&m, p)) return std::nullopt;
  return m;
}

/// "kind field=value ...", nested fields dotted (ctx.n_users); doubles
/// print with 17 significant digits.
template <WireMessage T>
std::string describe(const T& m) {
  std::string out(Wire<T>::kName);
  wire_detail::describe_fields(&out, "", m);
  return out;
}

/// describe() of whichever message `frame` decodes as, or "undecodable".
std::string describe_frame(std::string_view frame);

namespace wire_detail {

template <typename... T>
constexpr bool distinct_kinds(const std::tuple<T...>*) {
  const char kinds[] = {Wire<T>::kTag...};
  for (std::size_t i = 0; i < sizeof...(T); ++i)
    for (std::size_t j = i + 1; j < sizeof...(T); ++j)
      if (kinds[i] == kinds[j]) return false;
  return true;
}

}  // namespace wire_detail

// A frame decodes as at most one message type.
static_assert(wire_detail::distinct_kinds(
                  static_cast<const WireMessages*>(nullptr)),
              "two wire messages share a kind byte");

}  // namespace edgebol::oran
