// The message-plane abstraction every O-RAN interface rides on.
//
// A Transport carries opaque frames between exactly two endpoints. Two
// implementations exist:
//   * oran::InterfaceFabric — one direction of an in-process loopback link
//     (synchronous, time-free), so the node roles also run on one thread:
//     OranManagedTestbed and the node-role tests;
//   * net::MuxTransport — the real asynchronous plane: one stream of a
//     MuxEndpoint, i.e. stream-id framed frames over a TCP connection driven
//     by an epoll event loop, with bounded queues, explicit backpressure,
//     supervised reconnect, heartbeats, and an optional seeded chaos shim.
// Consumers (the RIC node roles in oran/ric_node.*) are written against
// this interface only, so they run unchanged over either plane.

#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/sync.hpp"

namespace edgebol::net {

/// What happened to a frame offered to send().
enum class SendResult {
  kQueued,    // accepted into the send queue (possibly after blocking)
  kShed,      // accepted, but the oldest queued frame was dropped to fit
  kRejected,  // refused: queue full under the kReject policy
  kClosed,    // transport is closed; frame not accepted
};

/// What to do when the bounded send queue is full.
enum class BackpressurePolicy {
  kBlock,      // block the sender until space frees (control planes)
  kShedOldest, // drop the oldest queued frame (telemetry: newest wins)
  kReject,     // refuse the new frame, surface kRejected to the caller
};

/// Connection supervision states (see DESIGN.md, transport state machine).
enum class LinkState {
  kIdle,         // created, not yet started
  kConnecting,   // client: non-blocking connect in flight
  kListening,    // server: awaiting a peer
  kEstablished,  // frames flow
  kBackoff,      // client: waiting out the exponential reconnect backoff
  kClosed,       // terminal
};

/// Everything a transport counts. Chaos tallies stay zero without a shim.
struct TransportStats {
  std::uint64_t frames_sent = 0;       // handed to the wire (post-chaos)
  std::uint64_t frames_received = 0;   // application frames surfaced
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t heartbeats_received = 0;
  std::uint64_t send_shed = 0;         // kShedOldest victims
  std::uint64_t send_rejected = 0;     // kReject refusals
  std::uint64_t send_block_waits = 0;  // kBlock senders that had to wait
  std::uint64_t recv_pauses = 0;       // reads paused on a full rx queue
  std::uint64_t recv_shed = 0;         // kShedOldest rx victims
  std::uint64_t reconnects = 0;        // client reconnect attempts scheduled
  std::uint64_t peer_timeouts = 0;     // liveness failures declared
  std::uint64_t accepts = 0;           // server-side peers accepted
  std::uint64_t decode_resets = 0;     // poisoned frame streams torn down
  std::uint64_t chaos_dropped = 0;
  std::uint64_t chaos_delayed = 0;
  std::uint64_t chaos_duplicated = 0;
  std::uint64_t chaos_corrupted = 0;
  std::uint64_t chaos_reordered = 0;
  std::uint64_t chaos_partition_drops = 0;
  std::uint64_t chaos_resets = 0;      // reconnect-storm forced disconnects
};

/// Shared wakeup for a node multiplexing several transports: each endpoint
/// notifies it when frames arrive or the link state changes, and the node
/// waits on it instead of checking every transport in turn.
class ReadySignal {
 public:
  void notify() {
    {
      common::LockGuard lock(mu_);
      ++pending_;
    }
    cv_.notify_all();
  }

  /// Wait until a notify() lands (consuming it) or the timeout elapses.
  /// Returns true when notified.
  bool wait(int timeout_ms) {
    common::MutexLock lock(mu_);
    if (!cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                      [&] { return pending_ > 0; }))
      return false;
    pending_ = 0;
    return true;
  }

 private:
  // Leaf lock (DESIGN.md §5e): endpoints notify() after releasing their
  // own mu_, and nothing is acquired while mu_ is held here.
  common::Mutex mu_{"ReadySignal::mu_"};
  common::CondVar cv_;
  std::uint64_t pending_ EB_GUARDED_BY(mu_) = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Offer one frame for asynchronous delivery. Never throws; the return
  /// value is the backpressure outcome, not a delivery guarantee (delivery
  /// guarantees live in the application protocol: retries + idempotency).
  virtual SendResult send(const std::string& frame) = 0;

  /// Drain every frame received since the last drain, in arrival order.
  virtual std::vector<std::string> drain() = 0;

  /// Blocking pop of the next received frame (loopback implementations
  /// return immediately regardless of the timeout — their world is
  /// time-free).
  virtual std::optional<std::string> receive(int timeout_ms) = 0;

  /// True while frames can plausibly reach the peer.
  virtual bool connected() const = 0;

  virtual const std::string& name() const = 0;
};

/// Pairs two simplex transports into one duplex endpoint: sends go out on
/// `tx`, receives come in on `rx`. This is how oran::LoopbackLink's two
/// in-process fabrics (oran::InterfaceFabric), each carrying one direction,
/// present the same bidirectional surface as one MuxTransport. Owns
/// neither side.
class SplitTransport final : public Transport {
 public:
  SplitTransport(Transport* tx, Transport* rx, std::string name)
      : tx_(tx), rx_(rx), name_(std::move(name)) {}

  SendResult send(const std::string& frame) override {
    return tx_->send(frame);
  }
  std::vector<std::string> drain() override { return rx_->drain(); }
  std::optional<std::string> receive(int timeout_ms) override {
    return rx_->receive(timeout_ms);
  }
  bool connected() const override {
    return tx_->connected() && rx_->connected();
  }
  const std::string& name() const override { return name_; }

 private:
  Transport* tx_;
  Transport* rx_;
  std::string name_;
};

}  // namespace edgebol::net
