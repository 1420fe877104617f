// Seeded transport-level chaos for the TCP message plane.
//
// The shim sits on the send side of a MuxEndpoint connection, on the loop
// thread, and decides each outbound frame's fate from its own RNG streams
// (derived from the FaultPlan seed, independent of the learner's and
// testbed's streams): drop, timed delay, duplicate, corrupt, reorder — plus
// scheduled partition windows during which *everything* (heartbeats
// included) is dropped, so peer-timeout detection and reconnect supervision
// get exercised for real.
// A partition window flagged `reset` additionally forces one local
// disconnect when it opens: a reconnect storm rather than mere silence.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "net/transport.hpp"

namespace edgebol::net {

/// One frame the shim wants on the wire, possibly after a timed hold.
struct ChaosEmission {
  std::string payload;
  std::int64_t delay_ms = 0;  // 0 = send immediately
  std::uint64_t tag = 0;      // on_send's tag for the frame this came from
};

class ChaosShim {
 public:
  ChaosShim(const fault::TransportFaultRates& rates, std::uint64_t seed);

  /// Start the partition clock. Windows are measured from this instant.
  void arm(std::int64_t now_ms) { base_ms_ = now_ms; }
  bool armed() const { return base_ms_ >= 0; }

  /// True while any partition window covers `now_ms`.
  bool partitioned(std::int64_t now_ms) const;

  /// Edge trigger: true exactly once per reset-flagged window, the first
  /// time the shim observes it open. The caller must then drop the link.
  bool take_reset(std::int64_t now_ms);

  /// Decide one outbound frame's fate. The result may be empty (dropped,
  /// partitioned, or held for reorder) or contain several emissions
  /// (duplicate; reorder releasing a held frame). Chaos tallies go to
  /// `stats` (caller holds whatever lock guards it). `tag` names the frame
  /// to the caller (a MuxEndpoint passes the stream id); each emission
  /// carries the tag of its own frame, so a frame released from the
  /// reorder hold keeps its identity whichever send released it.
  std::vector<ChaosEmission> on_send(const std::string& frame,
                                     std::int64_t now_ms,
                                     TransportStats* stats,
                                     std::uint64_t tag);

  /// Forget any frame held for reorder (link went down; the application's
  /// retry layer owns redelivery).
  void clear_held() { held_.reset(); }

 private:
  fault::TransportFaultRates rates_;
  fault::FaultInjector injector_;  // frame fates + payload corruption
  Rng reorder_rng_;                // separate stream for reorder draws
  std::int64_t base_ms_ = -1;
  std::vector<bool> reset_fired_;
  std::optional<ChaosEmission> held_;  // one-deep reorder hold
};

}  // namespace edgebol::net
