// Shared harness for the message-plane binaries (ric_node, load_ric,
// bench_transport): builds the Fig. 7 split's four links as streams on
// MuxEndpoint connections on ephemeral localhost ports, all driven by one
// EventLoop, and spins the NearRT/Env node roles on their own threads so a
// single process can host the whole distributed control plane (for trajectory
// verification and latency benchmarking) without any port coordination.
//
// Link topology (server side listed first):
//   a1   NearRT listens,  NonRT connects   (policy deploys; kBlock)
//   o1   NearRT listens,  NonRT connects   (KPI reports; kShedOldest)
//   e2   Env    listens,  NearRT connects  (controls + indications; kBlock)
//   svc  Env    listens,  NonRT connects   (paper's custom iface; kBlock)
//
// a1 and o1 share the NonRT <-> NearRT connection ("nn") as two streams
// with different backpressure policies; e2 and svc get one connection
// each, so the four links cost three sockets.
//
// This is a header-only helper shared by tools/ and test_ric_node, not
// library API.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include <edgebol/edgebol.hpp>

namespace plane {

using namespace edgebol;

inline double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-endpoint chaos spec (applied to that endpoint's sends).
struct LinkChaos {
  fault::TransportFaultRates rates{};
  std::uint64_t seed = 0;
};

inline net::MuxEndpointConfig mux_link_config(std::string name,
                                              net::ReadySignal* ready,
                                              const LinkChaos& chaos = {}) {
  net::MuxEndpointConfig cfg;
  cfg.name = std::move(name);
  cfg.ready = ready;
  cfg.chaos = chaos.rates;
  cfg.chaos_seed = chaos.seed;
  return cfg;
}

inline net::MuxStreamConfig mux_stream_config(std::string name,
                                              net::BackpressurePolicy policy) {
  net::MuxStreamConfig cfg;
  cfg.name = std::move(name);
  cfg.policy = policy;
  return cfg;
}

struct MuxPlaneOptions {
  /// Chaos on the e2 connection, per direction. A partition window placed
  /// on both sides silences the link completely (controls south,
  /// indications north).
  LinkChaos e2_client{};  // NearRT -> Env direction
  LinkChaos e2_server{};  // Env -> NearRT direction
};

/// All four links of the three-node plane in one process. Declaration
/// order matters: the EventLoop outlives every endpoint (members destroy
/// in reverse order).
struct MuxPlane {
  // Stream ids on the shared connections. Distinct across connections too,
  // so a frame leaking onto the wrong connection is an unknown-stream drop.
  static constexpr std::uint64_t kA1 = 1, kO1 = 2, kE2 = 3, kSvc = 4;

  net::EventLoop loop;
  net::ReadySignal nonrt_ready;
  net::ReadySignal nearrt_ready;
  net::ReadySignal env_ready;

  // Servers first so their ephemeral ports exist before the clients dial.
  std::unique_ptr<net::MuxEndpoint> nn_s;     // NearRT listens: a1 + o1
  std::unique_ptr<net::MuxEndpoint> e2ep_s;   // Env listens: e2
  std::unique_ptr<net::MuxEndpoint> svcep_s;  // Env listens: svc
  std::unique_ptr<net::MuxEndpoint> nn_c;     // NonRT dials nn
  std::unique_ptr<net::MuxEndpoint> svcep_c;  // NonRT dials svc
  std::unique_ptr<net::MuxEndpoint> e2ep_c;   // NearRT dials e2

  // Streams, owned by their endpoints.
  net::MuxTransport *a1_s, *o1_s;          // NearRT side
  net::MuxTransport *e2_s, *svc_s;         // Env side
  net::MuxTransport *a1_c, *o1_c, *svc_c;  // NonRT side
  net::MuxTransport* e2_c;                 // NearRT side

  explicit MuxPlane(const MuxPlaneOptions& opt = {}) {
    using net::BackpressurePolicy;
    using net::MuxEndpoint;
    nn_s = MuxEndpoint::listen(&loop, 0,
                               mux_link_config("nn/nearrt", &nearrt_ready));
    e2ep_s = MuxEndpoint::listen(
        &loop, 0, mux_link_config("e2/env", &env_ready, opt.e2_server));
    svcep_s = MuxEndpoint::listen(&loop, 0,
                                  mux_link_config("svc/env", &env_ready));
    a1_s = nn_s->open_stream(
        kA1, mux_stream_config("a1/nearrt", BackpressurePolicy::kBlock));
    o1_s = nn_s->open_stream(
        kO1, mux_stream_config("o1/nearrt", BackpressurePolicy::kShedOldest));
    e2_s = e2ep_s->open_stream(
        kE2, mux_stream_config("e2/env", BackpressurePolicy::kBlock));
    svc_s = svcep_s->open_stream(
        kSvc, mux_stream_config("svc/env", BackpressurePolicy::kBlock));

    nn_c = MuxEndpoint::connect(&loop, "127.0.0.1", nn_s->local_port(),
                                mux_link_config("nn/nonrt", &nonrt_ready));
    svcep_c = MuxEndpoint::connect(&loop, "127.0.0.1", svcep_s->local_port(),
                                   mux_link_config("svc/nonrt", &nonrt_ready));
    e2ep_c = MuxEndpoint::connect(
        &loop, "127.0.0.1", e2ep_s->local_port(),
        mux_link_config("e2/nearrt", &nearrt_ready, opt.e2_client));
    a1_c = nn_c->open_stream(
        kA1, mux_stream_config("a1/nonrt", BackpressurePolicy::kBlock));
    o1_c = nn_c->open_stream(
        kO1, mux_stream_config("o1/nonrt", BackpressurePolicy::kShedOldest));
    svc_c = svcep_c->open_stream(
        kSvc, mux_stream_config("svc/nonrt", BackpressurePolicy::kBlock));
    e2_c = e2ep_c->open_stream(
        kE2, mux_stream_config("e2/nearrt", BackpressurePolicy::kBlock));
  }

  /// Block until the e2 connection is up (chaos partition windows are
  /// measured from this instant). Returns the establishment time in
  /// now_ms() terms, or a negative value on timeout.
  double wait_e2_established(int timeout_ms = 10000) const {
    const double deadline = now_ms() + timeout_ms;
    while (now_ms() < deadline) {
      if (e2ep_c->established() && e2ep_s->established()) return now_ms();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return -1.0;
  }
};

/// The three node roles over a plane's links, with NearRT and Env serving
/// on background threads. The caller drives `nonrt` (handshake + steps)
/// from its own thread and destroys this object to stop the servers.
struct PlaneNodes {
  MuxPlane& plane;
  env::Testbed testbed;
  oran::NearRtRicNode nearrt;
  oran::EnvNode envnode;
  oran::NonRtRicNode nonrt;
  std::atomic<bool> stop{false};
  std::thread nearrt_thread;
  std::thread env_thread;

  PlaneNodes(MuxPlane& p, env::Testbed tb, oran::NodeTimeouts timeouts = {})
      : plane(p),
        testbed(std::move(tb)),
        nearrt(p.a1_s, p.e2_c, p.o1_s, &p.nearrt_ready, timeouts),
        envnode(testbed, p.e2_s, p.svc_s, &p.env_ready, timeouts),
        nonrt(p.a1_c, p.o1_c, p.svc_c, &p.nonrt_ready, timeouts) {
    nearrt_thread = std::thread([this] { nearrt.run(stop); });
    env_thread = std::thread([this] { envnode.run(stop); });
  }

  ~PlaneNodes() {
    stop.store(true);
    plane.nearrt_ready.notify();
    plane.env_ready.notify();
    if (nearrt_thread.joinable()) nearrt_thread.join();
    if (env_thread.joinable()) env_thread.join();
  }
};

/// The agent configuration every message-plane harness runs (mirrors the
/// chaos-convergence bench so trajectories are comparable across tools).
inline core::EdgeBolConfig canonical_agent_config() {
  core::EdgeBolConfig cfg;
  cfg.weights = {1.0, 8.0};
  cfg.constraints = {0.4, 0.5};
  cfg.resilience.enabled = true;
  return cfg;
}

}  // namespace plane
