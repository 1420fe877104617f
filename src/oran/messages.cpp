#include "oran/messages.hpp"

#include <cstdio>

namespace edgebol::oran {

namespace wire_detail {

void append_value(std::string* out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  *out += buf;
}

void append_value(std::string* out, std::int64_t v) {
  *out += std::to_string(v);
}

void append_value(std::string* out, std::uint64_t v) {
  *out += std::to_string(v);
}

void append_value(std::string* out, int v) { *out += std::to_string(v); }

void append_value(std::string* out, bool v) { *out += v ? "true" : "false"; }

template <typename... T>
std::string describe_first_match(std::string_view frame,
                                 const std::tuple<T...>*) {
  std::string out = "undecodable";
  const auto try_one = [&](auto decoded) {
    if (decoded) out = describe(*decoded);
    return decoded.has_value();
  };
  (void)(try_one(decode<T>(frame)) || ...);
  return out;
}

}  // namespace wire_detail

std::string describe_frame(std::string_view frame) {
  return wire_detail::describe_first_match(
      frame, static_cast<const WireMessages*>(nullptr));
}

}  // namespace edgebol::oran
