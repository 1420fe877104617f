// Fleet-scale O-RAN plane: N cells' E2-style control loops multiplexed over
// K TCP connections.
//
// The single-cell plane (oran/ric_node.*) gives every link its own stream;
// that does not survive contact with a 1000-cell fleet. This plane keeps
// the same control-loop shape — the cell sends an indication (context +
// previous period's feedback), the RIC answers with a policy — and carries
// every cell on a MuxTransport stream (stream id = cell id + 1) over a
// handful of shared connections (cell i rides connection i mod K). Both
// messages are frames of the one wire codec (oran/messages.hpp):
// FleetIndication is 102 bytes and FleetPolicy 49, trailer included, and
// a frame that fails decode<T> is a counted reject.
//
// Idempotency. The per-cell `period` counter keys redelivery: the server
// caches its last reply per cell, answers a duplicate indication (same
// period, e.g. resent across a reconnect) with the cached policy without
// re-deciding or re-conditioning, and drops anything older. A batch holds
// at most one frame per cell: a later frame for a cell already in the
// batch counts as a duplicate and is dropped (the batch's reply answers
// it). A cell therefore observes exactly one decision per period no matter
// how the transport misbehaves, matching the retry/idempotency contract.
//
// Streaming. Each cell's policy leaves the moment that cell is decided:
// poll_once classifies every frame first (reject, in-batch duplicate,
// redelivery, stale), then runs the due cells through the engine's fused
// serve_batch, which updates, decides and replies per cell on the engine's
// pool. The reply is encoded into the cell's cached reply and sent from
// the deciding thread, so a cell does not wait for the batch's last cell.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/fleet_engine.hpp"
#include "env/context.hpp"
#include "env/policy.hpp"
#include "env/testbed.hpp"
#include "net/mux_transport.hpp"
#include "oran/messages.hpp"

namespace edgebol::oran {

/// Shared knobs for both ends of the fleet plane.
struct FleetPlaneConfig {
  /// Connections K (a mux server adopts one peer per listener, so the
  /// server opens K listening endpoints and cell i rides i mod K).
  std::size_t num_connections = 1;
  /// Per-connection template; `name` gets "/k" appended, `ready` is
  /// overridden with the plane's own signal.
  net::MuxEndpointConfig endpoint{};
  /// Per-cell stream template (`name` gets "/cell<i>" appended). Default
  /// kBlock: a cell's indication must not be silently lost.
  net::MuxStreamConfig stream{};
};

/// RIC side: K listening MuxEndpoints feeding one core::FleetEngine.
/// poll_once() is the whole serving loop body: drain every connection,
/// classify the frames, then serve the due cells (FleetEngine::serve_batch:
/// apply feedback, decide, reply on the cell's stream, one cell at a time
/// per engine thread).
///
/// Threading: call poll_once() from one thread at a time. Replies are sent
/// from the engine's pool workers as well as from that thread; a cell's
/// slot (cached reply, last period) is written only by the thread deciding
/// it, and read by poll_once() in a later call, after the dispatch joined.
/// MuxTransport::send takes only its endpoint's mutex, and the pool holds
/// none of its own around the reply.
///
/// Errors: if one cell's update or select throws, poll_once() rethrows
/// once the dispatch has finished. The replies of cells decided before it
/// have left and stay sent (their slots answer redeliveries from cache);
/// the batch adds nothing to decisions().
class FleetRicServer {
 public:
  /// Binds all K listeners on ephemeral ports; ports() is valid on return.
  /// The engine must already hold `num_cells` cells (ids 0..num_cells-1).
  FleetRicServer(net::EventLoop* loop, core::FleetEngine* engine,
                 std::size_t num_cells, FleetPlaneConfig cfg);
  ~FleetRicServer();

  const std::vector<std::uint16_t>& ports() const { return ports_; }
  std::size_t num_connections() const { return endpoints_.size(); }

  /// Block (up to timeout_ms) for transport activity; false on timeout.
  bool wait_activity(int timeout_ms) { return ready_.wait(timeout_ms); }

  /// Drain -> classify -> serve_batch (update -> decide -> reply, per
  /// cell). Returns the number of fresh decisions made (duplicates
  /// re-answered from cache don't count).
  std::size_t poll_once();

  // Counters are written only by the poll_once() caller but observed from
  // other threads (benches and tests watch progress while a server thread
  // polls), so they are relaxed atomics: single writer, any reader.
  std::uint64_t decisions() const {
    return decisions_.load(std::memory_order_relaxed);
  }
  std::uint64_t duplicate_indications() const {
    return duplicates_.load(std::memory_order_relaxed);
  }
  std::uint64_t stale_indications() const {
    return stale_.load(std::memory_order_relaxed);
  }
  /// Indications dropped unanswered: undecodable frames, and feedback that
  /// names an arm outside the grid.
  std::uint64_t decode_rejects() const {
    return decode_rejects_.load(std::memory_order_relaxed);
  }
  /// Wall time spent inside the engine's fused dispatch (update + decide,
  /// and the replies sent from it), for the decode-vs-decide split in the
  /// bench reports.
  double engine_wall_ms() const {
    return engine_wall_ms_.load(std::memory_order_relaxed);
  }

  net::MuxEndpoint& endpoint(std::size_t k) { return *endpoints_.at(k); }

 private:
  struct CellSlot {
    net::MuxTransport* stream = nullptr;
    // Written by the thread deciding the cell (reply()).
    std::int64_t last_period = -1;
    std::string last_reply;  // resent verbatim on a duplicate indication
    std::uint64_t batch = 0;  // last poll_once batch holding this cell
  };

  // Encodes and sends the policy of batch index i; serve_batch's callback.
  void reply(std::size_t i);

  core::FleetEngine* engine_;
  net::ReadySignal ready_;
  std::vector<std::unique_ptr<net::MuxEndpoint>> endpoints_;
  std::vector<std::uint16_t> ports_;
  std::vector<CellSlot> cells_;

  // poll_once scratch, reused across calls.
  std::uint64_t batch_ = 0;  // poll_once batches so far (ids start at 1)
  std::vector<net::StreamFrame> frames_;
  std::vector<std::size_t> due_;
  std::vector<env::Context> ctx_;
  std::vector<std::int64_t> periods_;
  std::vector<core::CellFeedback> feedback_;
  std::vector<core::Decision> out_;

  std::atomic<std::uint64_t> decisions_{0};
  std::atomic<std::uint64_t> duplicates_{0};
  std::atomic<std::uint64_t> stale_{0};
  std::atomic<std::uint64_t> decode_rejects_{0};
  std::atomic<double> engine_wall_ms_{0.0};
};

/// Cell side: N cells' client streams over K dialing MuxEndpoints. The
/// driver (a fleet simulator or load generator) owns the cells' state and
/// uses this bank purely as the wire: send_indication / drain_policies.
class FleetCellBank {
 public:
  FleetCellBank(net::EventLoop* loop, const std::string& host,
                std::span<const std::uint16_t> ports, std::size_t num_cells,
                FleetPlaneConfig cfg);
  ~FleetCellBank();

  std::size_t num_connections() const { return endpoints_.size(); }

  net::SendResult send_indication(std::size_t cell,
                                  const FleetIndication& ind);

  /// Append every decoded (cell id, policy) pending across all connections.
  std::size_t drain_policies(std::vector<std::pair<std::size_t, FleetPolicy>>* out);

  bool wait_activity(int timeout_ms) { return ready_.wait(timeout_ms); }
  /// True once every connection reached kEstablished.
  bool all_established() const;
  /// Block until all_established() or timeout; false on timeout.
  bool wait_established(int timeout_ms);

  std::uint64_t decode_rejects() const { return decode_rejects_; }
  net::MuxEndpoint& endpoint(std::size_t k) { return *endpoints_.at(k); }

 private:
  net::ReadySignal ready_;
  std::vector<std::unique_ptr<net::MuxEndpoint>> endpoints_;
  std::vector<net::MuxTransport*> streams_;  // index = cell id
  std::vector<net::StreamFrame> frames_;
  std::string encode_buf_;
  std::uint64_t decode_rejects_ = 0;
};

}  // namespace edgebol::oran
