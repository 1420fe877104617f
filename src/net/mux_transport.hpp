// Stream-multiplexed TCP endpoint: the message plane's one transport.
//
// A MuxEndpoint owns one supervised TCP connection (server or client side)
// and multiplexes any number of logical streams over it using the varint
// stream-id framing in net/mux_framing.hpp. Each stream is a full
// net::Transport (MuxTransport), so the RIC node roles and the fleet plane
// run over it unchanged: a point-to-point link is a one-stream endpoint, a
// 1000-cell fleet is N streams over K connections.
//
// Supervision (DESIGN.md §5f has the state machine): clients redial with
// exponential backoff; servers keep listening and adopt the newest peer (a
// half-open predecessor is dropped on accept); heartbeats every
// heartbeat_ms and a peer timeout on receive silence detect a dead peer.
// Optional seeded chaos (net/chaos.hpp) runs on the send side, heartbeats
// included.
//
// Hot-path design (this is the fleet's ingest bottleneck — see DESIGN.md
// §5f):
//   * TX: frames move from per-stream bounded queues into a staged wire
//     queue round-robin (one frame per stream per sweep, so one busy stream
//     cannot starve its siblings), then ONE gathered writev/sendmsg flushes
//     every staged frame per loop iteration. The iovec build is a `// hot:`
//     no-allocation region.
//   * RX: readv lands bytes straight into the MuxDecoder's ring buffer and
//     frames surface as zero-copy FrameViews; one endpoint-mutex hold
//     dispatches a whole readv batch across stream queues.
//
// Per-stream semantics:
//   * backpressure policy applies per stream, on both sides. A kShedOldest
//     stream that overflows its receive bound sheds its own oldest frame
//     and never slows the connection; a kBlock/kReject stream that
//     overflows pauses POLLIN connection-wide until drained below half
//     (the documented head-of-line tradeoff for lossless streams).
//   * an unknown stream id is counted and dropped; the connection survives
//     (unlike a corrupt header, which poisons and resets it).
//   * when a connection goes (failure, or a newer peer adopted), its staged
//     wire bytes and chaos-held frames go with it, but per-stream queues
//     are retained: queued frames are redelivered in per-stream order
//     after reattach. Lost frames are the application's to retry; the
//     node roles' request ids and the fleet plane's period keys make those
//     retries idempotent.
//
// Threading: socket state is confined to the loop thread; one endpoint
// mutex guards every stream's queues + link state. Destroy the endpoint
// before its EventLoop, and do not call stream send()/receive()
// concurrently with the endpoint's destructor; streams are owned by the
// endpoint and die with it. open_stream() is thread-safe but must complete
// before frames for that id arrive (else they count as unknown-stream
// drops).

#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/sync.hpp"
#include "net/chaos.hpp"
#include "net/event_loop.hpp"
#include "net/mux_framing.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"

namespace edgebol::net {

/// Per-stream knobs. The policy governs both directions: what send() does
/// when the tx queue fills, and what the endpoint does when the stream's rx
/// queue fills (kShedOldest sheds its own oldest; kBlock/kReject pause the
/// connection's POLLIN until the consumer drains below half).
struct MuxStreamConfig {
  std::string name = "stream";
  BackpressurePolicy policy = BackpressurePolicy::kBlock;
  std::size_t max_send_queue = 256;
  std::size_t max_recv_queue = 1024;
};

/// Connection-level knobs: supervision timing, wakeup, chaos. A frame's
/// payload is capped at kDefaultMaxFrameBytes both ways.
struct MuxEndpointConfig {
  std::string name = "mux";
  int heartbeat_ms = 200;
  int peer_timeout_ms = 1000;
  /// Optional shared wakeup; notified on frame arrival and link changes.
  ReadySignal* ready = nullptr;
  /// Seeded chaos applied to the whole connection's send side (heartbeats
  /// included, so a partition window starves the peer into a timeout).
  fault::TransportFaultRates chaos{};
  std::uint64_t chaos_seed = 0;
};

/// Connection-level counters. `link` aggregates the classic TransportStats
/// across all streams (chaos tallies land here); the extra fields measure
/// the batching machinery itself.
struct MuxEndpointStats {
  TransportStats link;
  std::uint64_t writev_calls = 0;  // gathered flushes issued
  std::uint64_t readv_calls = 0;   // scattered reads issued
  std::uint64_t unknown_stream_frames = 0;  // dropped, connection unharmed
  std::uint64_t scratch_copies = 0;         // ring-wrap slow-path decodes
  double readv_wall_ms = 0.0;   // time inside readv (syscall side)
  double decode_wall_ms = 0.0;  // time decoding + dispatching frames
};

/// One frame drained endpoint-wide (see MuxEndpoint::drain_all).
struct StreamFrame {
  std::uint64_t stream_id = 0;
  std::string payload;
};

// MuxEndpoint is defined before MuxTransport so the stream's
// EB_GUARDED_BY(ep_->mu_) annotations see a complete endpoint type.
class MuxTransport;

class MuxEndpoint {
 public:
  /// Server endpoint on 127.0.0.1:port (0 = ephemeral; bound port valid on
  /// return). Adopts the newest peer: an accept replaces the current one.
  static std::unique_ptr<MuxEndpoint> listen(EventLoop* loop,
                                             std::uint16_t port,
                                             MuxEndpointConfig cfg);

  /// Client endpoint; connects (and reconnects, forever) to host:port.
  static std::unique_ptr<MuxEndpoint> connect(EventLoop* loop,
                                              const std::string& host,
                                              std::uint16_t port,
                                              MuxEndpointConfig cfg);

  ~MuxEndpoint();

  /// Register stream `id` (> 0) and return its Transport facade, owned by
  /// this endpoint. Idempotent: an already-open id returns the existing
  /// stream (its original config wins). Thread-safe.
  MuxTransport* open_stream(std::uint64_t id, MuxStreamConfig cfg);

  /// Drain every stream's rx queue in one lock hold, appending (stream id,
  /// payload) pairs to `out` — per-stream arrival order preserved, streams
  /// visited in registration order. Returns the frames appended. This is
  /// the fleet server's batch-ingest entry point.
  std::size_t drain_all(std::vector<StreamFrame>* out);

  std::uint16_t local_port() const { return bound_port_; }
  LinkState state() const;
  bool established() const;
  MuxEndpointStats stats() const;

  /// Test/chaos hook: drop the connection; supervision takes over.
  void force_disconnect();

  /// Use the listen()/connect() factories; public only for make_unique.
  MuxEndpoint(EventLoop* loop, MuxEndpointConfig cfg, bool is_server,
              std::string host, std::uint16_t port);

 private:
  friend class MuxTransport;

  // --- Application-thread interface (called by MuxTransport) -------------
  SendResult stream_send(MuxTransport* s, const std::string& frame);
  std::vector<std::string> stream_drain(MuxTransport* s);
  std::optional<std::string> stream_receive(MuxTransport* s, int timeout_ms);

  /// mu_ held. Un-pause the stream if it drained below half, and resume
  /// POLLIN once no stream is holding it.
  void maybe_resume_rx_locked(MuxTransport* s) EB_REQUIRES(mu_);
  /// mu_ held. Schedule one coalesced pump on the loop thread.
  void kick_locked() EB_REQUIRES(mu_);

  // --- Loop-thread-only machinery (each body opens with the
  // --- // affinity: loop assertion) ---------------------------------------
  void setup_on_loop();
  void start_connect();
  void on_connect_writable();
  void schedule_reconnect();
  void on_listen_readable();
  void on_connected();
  void on_conn_event(short revents);
  void on_readable();
  void dispatch_decoded(bool* fatal);
  /// Drop the current connection and everything tied to it (decoder, staged
  /// wire bytes, chaos delay timers and reorder hold). Per-stream queues
  /// survive. Shared by disconnect() and newest-peer adoption.
  void drop_connection();
  void disconnect(bool failure);
  void pump_tx();
  void emit_locked(std::uint64_t stream_id, std::string payload,
                   bool heartbeat, TransportStats* stream_stats)
      EB_REQUIRES(mu_);
  void queue_delayed(std::uint64_t stream_id, const ChaosEmission& em,
                     bool heartbeat, TransportStats* stream_stats)
      EB_REQUIRES(mu_);
  void stage_frame(std::uint64_t stream_id, std::string payload,
                   bool heartbeat, TransportStats* stream_stats)
      EB_REQUIRES(mu_);
  bool flush_staged();  // one writev sweep; false on EAGAIN or link loss
  void advance_wire(std::size_t n);
  void update_conn_events();
  void tick();
  void teardown_on_loop();

  void notify_ready();

  EventLoop* loop_;
  MuxEndpointConfig cfg_;
  const bool is_server_;
  const std::string host_;
  std::uint16_t bound_port_ = 0;  // server: actual port; client: target

  // Shared state (application threads + loop thread), guarded by mu_.
  // Hierarchy (DESIGN.md §5e): mu_ is held while posting to the loop
  // (mu_ -> EventLoop::tasks_mu_); never held together with down_mu_.
  mutable common::Mutex mu_{"MuxEndpoint::mu_"};
  common::CondVar cv_tx_;  // space freed in some stream's tx
  common::CondVar cv_rx_;  // frame arrived in some stream's rx
  std::vector<std::unique_ptr<MuxTransport>> streams_
      EB_GUARDED_BY(mu_);  // stable pointers
  std::unordered_map<std::uint64_t, MuxTransport*> by_id_ EB_GUARDED_BY(mu_);
  MuxEndpointStats stats_ EB_GUARDED_BY(mu_);
  LinkState state_ EB_GUARDED_BY(mu_) = LinkState::kIdle;
  bool closed_ EB_GUARDED_BY(mu_) = false;
  bool kick_pending_ EB_GUARDED_BY(mu_) = false;
  std::size_t rx_paused_streams_ EB_GUARDED_BY(mu_) =
      0;  // lossless streams holding POLLIN

  // Loop-thread-only state. (wire_q_/iov_ are touched under mu_ too when a
  // pump stages frames, but only ever from the loop thread.)
  Fd listen_fd_;
  Fd conn_fd_;
  MuxDecoder decoder_;
  /// One staged frame: header bytes inline, payload gathered by writev.
  struct WireSeg {
    char hdr[kMuxMaxHeaderBytes];
    std::uint8_t hdr_len = 0;
    std::string payload;
  };
  std::deque<WireSeg> wire_q_;  // staged frames awaiting the wire
  std::size_t wire_bytes_ = 0;  // staged-and-unwritten byte total
  std::size_t wire_off_ = 0;    // bytes of wire_q_.front() already written
  std::vector<struct iovec> iov_;  // pre-sized writev scratch (hot path)
  int backoff_ms_ = 0;
  std::int64_t last_rx_ms_ = 0;
  std::uint64_t tick_timer_ = 0;
  std::uint64_t reconnect_timer_ = 0;
  std::set<std::uint64_t> delay_timers_;  // chaos timed-delay holds
  std::unique_ptr<ChaosShim> chaos_;
  std::size_t rr_next_ = 0;  // round-robin pump cursor over streams_

  // Destructor barrier. down_mu_ is a leaf: never held with mu_.
  common::Mutex down_mu_{"MuxEndpoint::down_mu_"};
  common::CondVar down_cv_;
  bool down_ EB_GUARDED_BY(down_mu_) = false;
};

/// One multiplexed stream; a full Transport backed by the endpoint's shared
/// connection. Created by MuxEndpoint::open_stream and owned by the
/// endpoint (valid until the endpoint is destroyed).
class MuxTransport final : public Transport {
 public:
  SendResult send(const std::string& frame) override;
  std::vector<std::string> drain() override;
  std::optional<std::string> receive(int timeout_ms) override;
  bool connected() const override;
  const std::string& name() const override { return cfg_.name; }

  std::uint64_t stream_id() const { return id_; }
  TransportStats stats() const;

  /// Use MuxEndpoint::open_stream; public only for make_unique.
  MuxTransport(MuxEndpoint* ep, std::uint64_t id, MuxStreamConfig cfg)
      : ep_(ep), id_(id), cfg_(std::move(cfg)) {}

 private:
  friend class MuxEndpoint;

  MuxEndpoint* ep_;
  const std::uint64_t id_;
  const MuxStreamConfig cfg_;

  // Guarded by the ENDPOINT's mutex: one lock per loop sweep across every
  // stream beats N per-stream locks on the hot path.
  std::deque<std::string> tx_ EB_GUARDED_BY(ep_->mu_);
  std::deque<std::string> rx_ EB_GUARDED_BY(ep_->mu_);
  TransportStats stats_ EB_GUARDED_BY(ep_->mu_);
  bool rx_paused_ EB_GUARDED_BY(ep_->mu_) =
      false;  // this stream is holding the connection's POLLIN
};

}  // namespace edgebol::net
