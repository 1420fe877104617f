// Transport-layer tests: the epoll event loop, a point-to-point link as a
// one-stream MuxEndpoint pair (queues, backpressure, supervision: peer
// adoption, peer timeout, reconnect storms; send-side chaos), the chaos
// shim itself, and the loopback InterfaceFabric behind the same
// net::Transport interface. Multi-stream behavior lives in test_mux.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "net/chaos.hpp"
#include "net/event_loop.hpp"
#include "net/mux_transport.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"
#include "oran/ric.hpp"

namespace edgebol::net {
namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Poll `cond` until it holds or `timeout_ms` elapses. All timing-sensitive
/// assertions go through this, sized for slow sanitizer runs.
bool eventually(const std::function<bool()>& cond, int timeout_ms = 20000) {
  const double deadline = now_ms() + timeout_ms;
  while (now_ms() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return cond();
}

MuxEndpointConfig ecfg(std::string name) {
  MuxEndpointConfig c;
  c.name = std::move(name);
  return c;
}

MuxStreamConfig scfg(std::string name,
                     BackpressurePolicy policy = BackpressurePolicy::kBlock) {
  MuxStreamConfig c;
  c.name = std::move(name);
  c.policy = policy;
  return c;
}

/// The stream id a point-to-point link rides on.
constexpr std::uint64_t kLink = 1;

/// One point-to-point link: a listening and a dialing endpoint on `loop`,
/// each with stream kLink open. Client-side chaos and queue bounds come in
/// through the configs.
struct Link {
  std::unique_ptr<MuxEndpoint> server_ep;
  std::unique_ptr<MuxEndpoint> client_ep;
  MuxTransport* server = nullptr;
  MuxTransport* client = nullptr;

  explicit Link(EventLoop* loop, MuxEndpointConfig client_cfg = ecfg("cli"),
                MuxStreamConfig client_stream = scfg("cli")) {
    server_ep = MuxEndpoint::listen(loop, 0, ecfg("srv"));
    server = server_ep->open_stream(kLink, scfg("srv"));
    client_ep = MuxEndpoint::connect(loop, "127.0.0.1",
                                     server_ep->local_port(), client_cfg);
    client = client_ep->open_stream(kLink, std::move(client_stream));
  }
};

/// An ephemeral port with nothing listening on it (bound once, then freed).
std::uint16_t dead_port() {
  Fd fd = tcp_listen(0);
  return local_port(fd.get());
}

/// "f<i>" built with append — `"f" + std::to_string(i)` trips gcc 12's
/// spurious -Wrestrict on the inlined operator+ under -Werror builds.
std::string frame_name(int i) {
  std::string s = "f";
  s += std::to_string(i);
  return s;
}

// --- EventLoop -------------------------------------------------------------

TEST(EventLoop, RunsPostedTasksOnLoopThread) {
  EventLoop loop;
  std::atomic<bool> ran{false};
  std::atomic<bool> on_loop{false};
  loop.post([&] {
    on_loop.store(loop.on_loop_thread());
    ran.store(true);
  });
  EXPECT_TRUE(eventually([&] { return ran.load(); }));
  EXPECT_TRUE(on_loop.load());
}

TEST(EventLoop, TimersFireOnceAndCancelledTimersDoNot) {
  EventLoop loop;
  std::atomic<int> fired{0};
  loop.post([&] { loop.add_timer(10, [&] { ++fired; }); });
  std::atomic<std::uint64_t> cancel_me{0};
  std::atomic<bool> armed{false};
  loop.post([&] {
    cancel_me.store(loop.add_timer(5000, [&] { fired += 100; }));
    armed.store(true);
  });
  ASSERT_TRUE(eventually([&] { return armed.load(); }));
  loop.post([&] { loop.cancel_timer(cancel_me.load()); });
  ASSERT_TRUE(eventually([&] { return fired.load() == 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(fired.load(), 1);
}

TEST(EventLoop, PostAfterStopRunsInline) {
  std::atomic<bool> ran{false};
  {
    EventLoop loop;
    loop.stop();
    // The loop thread is (or is about to be) gone; the task must not be
    // stranded in a queue nobody drains.
    loop.post([&] { ran.store(true); });
  }
  EXPECT_TRUE(ran.load());
}

// --- One-stream links: backpressure while the link is down -----------------

TEST(MuxLink, ShedOldestDropsHeadWhenQueueFull) {
  EventLoop loop;
  auto ep = MuxEndpoint::connect(&loop, "127.0.0.1", dead_port(), ecfg("cli"));
  MuxStreamConfig c = scfg("cli", BackpressurePolicy::kShedOldest);
  c.max_send_queue = 3;
  MuxTransport* client = ep->open_stream(kLink, c);

  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(client->send(frame_name(i)), SendResult::kQueued);
  EXPECT_EQ(client->send("f3"), SendResult::kShed);
  EXPECT_EQ(client->send("f4"), SendResult::kShed);
  EXPECT_EQ(client->stats().send_shed, 2u);
}

TEST(MuxLink, RejectRefusesNewFrameWhenQueueFull) {
  EventLoop loop;
  auto ep = MuxEndpoint::connect(&loop, "127.0.0.1", dead_port(), ecfg("cli"));
  MuxStreamConfig c = scfg("cli", BackpressurePolicy::kReject);
  c.max_send_queue = 2;
  MuxTransport* client = ep->open_stream(kLink, c);

  EXPECT_EQ(client->send("a"), SendResult::kQueued);
  EXPECT_EQ(client->send("b"), SendResult::kQueued);
  EXPECT_EQ(client->send("c"), SendResult::kRejected);
  EXPECT_EQ(client->stats().send_rejected, 1u);
}

// --- One-stream links: exchange and supervision ----------------------------

TEST(MuxLink, BlockingSendDeliversEverythingThroughSmallQueue) {
  EventLoop loop;
  MuxStreamConfig c = scfg("cli", BackpressurePolicy::kBlock);
  c.max_send_queue = 4;
  Link link(&loop, ecfg("cli"), c);

  const int n = 200;
  for (int i = 0; i < n; ++i)
    ASSERT_EQ(link.client->send(std::string(2000, 'b')), SendResult::kQueued);
  EXPECT_TRUE(eventually([&] {
    return link.server->stats().frames_received ==
           static_cast<std::uint64_t>(n);
  }));
  // A 4-deep queue cannot hold 200 frames without the sender having waited.
  EXPECT_GT(link.client->stats().send_block_waits, 0u);
}

TEST(MuxLink, ServerSurvivesPeerChurn) {
  EventLoop loop;
  auto server_ep = MuxEndpoint::listen(&loop, 0, ecfg("srv"));
  MuxTransport* server = server_ep->open_stream(kLink, scfg("srv"));
  {
    auto first = MuxEndpoint::connect(&loop, "127.0.0.1",
                                      server_ep->local_port(), ecfg("cli1"));
    first->open_stream(kLink, scfg("cli1"))->send("from first");
    ASSERT_TRUE(server->receive(20000).has_value());
  }
  auto second = MuxEndpoint::connect(&loop, "127.0.0.1",
                                     server_ep->local_port(), ecfg("cli2"));
  second->open_stream(kLink, scfg("cli2"))->send("from second");
  const auto got = server->receive(20000);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "from second");
  EXPECT_GE(server_ep->stats().link.accepts, 2u);
}

TEST(MuxLink, AdoptingNewestPeerDropsFramesHeldForTheOldOne) {
  EventLoop loop;
  // Every server frame is held 1 s by chaos; liveness stays out of the way
  // (no heartbeat or timeout fires during the test).
  MuxEndpointConfig sc = ecfg("srv");
  sc.heartbeat_ms = 60000;
  sc.peer_timeout_ms = 120000;
  sc.chaos.frames.delay = 1.0;
  sc.chaos.delay_ms = 1000;
  sc.chaos_seed = 3;
  auto server_ep = MuxEndpoint::listen(&loop, 0, sc);
  MuxTransport* server = server_ep->open_stream(kLink, scfg("srv"));

  // Peer A: a bare socket that connects and then stays silent, half-open.
  bool in_progress = false;
  Fd peer_a = tcp_connect("127.0.0.1", server_ep->local_port(), &in_progress);
  ASSERT_TRUE(peer_a.valid());
  ASSERT_TRUE(eventually([&] { return server_ep->established(); }));

  // A frame bound for A enters chaos's timed hold...
  const double t_send = now_ms();
  EXPECT_EQ(server->send("for A only"), SendResult::kQueued);
  ASSERT_TRUE(eventually(
      [&] { return server_ep->stats().link.chaos_delayed == 1; }));

  // ...and peer B connects before the hold expires: the server adopts B.
  MuxEndpointConfig bc = ecfg("cli");
  bc.heartbeat_ms = 60000;
  bc.peer_timeout_ms = 120000;
  auto peer_b = MuxEndpoint::connect(&loop, "127.0.0.1",
                                     server_ep->local_port(), bc);
  MuxTransport* b = peer_b->open_stream(kLink, scfg("cli"));
  ASSERT_TRUE(eventually(
      [&] { return server_ep->stats().link.accepts == 2; }));
  ASSERT_LT(now_ms() - t_send, 900.0) << "B adopted after the hold expired";

  // A's frame died with A's connection: it never reaches B.
  EXPECT_FALSE(b->receive(1500).has_value());
  EXPECT_EQ(server_ep->stats().link.frames_sent, 0u);
}

TEST(MuxLink, SilencedPeerTriggersPeerTimeout) {
  EventLoop loop;
  // Client-side chaos drops every outbound frame, heartbeats included: the
  // server hears nothing and must declare the peer dead on its own clock.
  MuxEndpointConfig c = ecfg("cli");
  c.chaos.frames.drop = 1.0;
  c.chaos_seed = 11;
  Link link(&loop, c);
  link.client->send("never arrives");
  EXPECT_TRUE(eventually(
      [&] { return link.server_ep->stats().link.peer_timeouts > 0; }));
  EXPECT_EQ(link.server->stats().frames_received, 0u);
  EXPECT_GT(link.client_ep->stats().link.chaos_dropped, 0u);
}

// --- One-stream links: chaos -----------------------------------------------

TEST(MuxLink, ChaosDuplicateDeliversFrameTwice) {
  EventLoop loop;
  MuxEndpointConfig c = ecfg("cli");
  c.chaos.frames.duplicate = 1.0;
  c.chaos_seed = 5;
  Link link(&loop, c);
  link.client->send("twin");
  std::vector<std::string> got;
  ASSERT_TRUE(eventually([&] {
    for (std::string& f : link.server->drain()) got.push_back(std::move(f));
    return got.size() >= 2u;
  }));
  EXPECT_EQ(got[0], "twin");
  EXPECT_EQ(got[1], "twin");
  EXPECT_GT(link.client_ep->stats().link.chaos_duplicated, 0u);
}

TEST(MuxLink, ChaosDelayHoldsFrameButDelivers) {
  EventLoop loop;
  MuxEndpointConfig c = ecfg("cli");
  c.chaos.frames.delay = 1.0;
  c.chaos.delay_ms = 50;
  c.chaos_seed = 5;
  Link link(&loop, c);
  link.client->send("held");
  const auto got = link.server->receive(20000);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "held");
  EXPECT_GT(link.client_ep->stats().link.chaos_delayed, 0u);
}

TEST(MuxLink, ResetWindowForcesReconnectStorm) {
  EventLoop loop;
  MuxEndpointConfig c = ecfg("cli");
  c.chaos.partitions.push_back({0, 400, true});
  c.chaos_seed = 17;
  Link link(&loop, c);
  EXPECT_TRUE(eventually([&] {
    const TransportStats st = link.client_ep->stats().link;
    return st.chaos_resets > 0 && st.reconnects > 0;
  }));
  // The storm passes: the link must settle back to established.
  EXPECT_TRUE(eventually([&] { return link.client_ep->established(); }));
}

TEST(MuxLink, ChaosCorruptionKeepsLinkAlive) {
  EventLoop loop;
  MuxEndpointConfig c = ecfg("cli");
  c.chaos.frames.corrupt = 1.0;
  c.chaos_seed = 23;
  Link link(&loop, c);
  // Corruption mangles payloads before framing, so the framing layer stays
  // in sync and the garbage surfaces to the application (whose codecs
  // count it as a decode reject). The link itself must stay live.
  for (int i = 0; i < 50; ++i) link.client->send(std::string(100, 'p'));
  EXPECT_TRUE(eventually(
      [&] { return link.client_ep->stats().link.chaos_corrupted > 0; }));
  EXPECT_TRUE(eventually([&] {
    return link.client_ep->established() && link.server_ep->established();
  }));
  EXPECT_EQ(link.server_ep->stats().link.decode_resets, 0u);
}

TEST(MuxLink, ChaosReorderKeepsEachFrameOnItsOwnStream) {
  EventLoop loop;
  // Every clean frame is held until the next send releases it — including
  // a send on another stream or a heartbeat. A released frame must keep its
  // own stream and framing.
  MuxEndpointConfig c = ecfg("cli");
  c.heartbeat_ms = 20;
  c.chaos.reorder = 1.0;
  c.chaos_seed = 29;
  Link link(&loop, c);
  MuxTransport* server2 = link.server_ep->open_stream(2, scfg("srv2"));
  MuxTransport* client2 = link.client_ep->open_stream(2, scfg("cli2"));
  ASSERT_TRUE(eventually([&] { return link.client_ep->established(); }));

  for (int i = 0; i < 20; ++i) {
    ASSERT_EQ(link.client->send(frame_name(i)), SendResult::kQueued);
    ASSERT_EQ(client2->send(frame_name(100 + i)), SendResult::kQueued);
  }
  std::vector<std::string> got1, got2;
  ASSERT_TRUE(eventually([&] {
    for (std::string& f : link.server->drain()) got1.push_back(std::move(f));
    for (std::string& f : server2->drain()) got2.push_back(std::move(f));
    return got1.size() >= 20u && got2.size() >= 20u;
  }));
  std::sort(got1.begin(), got1.end());
  std::sort(got2.begin(), got2.end());
  std::vector<std::string> want1, want2;
  for (int i = 0; i < 20; ++i) {
    want1.push_back(frame_name(i));
    want2.push_back(frame_name(100 + i));
  }
  std::sort(want1.begin(), want1.end());
  std::sort(want2.begin(), want2.end());
  EXPECT_EQ(got1, want1);
  EXPECT_EQ(got2, want2);
  EXPECT_GT(link.client_ep->stats().link.chaos_reordered, 0u);
  EXPECT_EQ(link.server_ep->stats().link.decode_resets, 0u);
}

// --- ChaosShim unit behavior ----------------------------------------------

TEST(ChaosShim, PartitionWindowsAreMeasuredFromArm) {
  fault::TransportFaultRates rates;
  rates.partitions.push_back({100, 50, false});
  ChaosShim shim(rates, 1);
  EXPECT_FALSE(shim.partitioned(10000));  // not armed yet
  shim.arm(10000);
  EXPECT_FALSE(shim.partitioned(10099));
  EXPECT_TRUE(shim.partitioned(10100));
  EXPECT_TRUE(shim.partitioned(10149));
  EXPECT_FALSE(shim.partitioned(10150));
}

TEST(ChaosShim, TakeResetFiresExactlyOncePerWindow) {
  fault::TransportFaultRates rates;
  rates.partitions.push_back({0, 100, true});
  rates.partitions.push_back({200, 100, false});
  ChaosShim shim(rates, 1);
  shim.arm(0);
  EXPECT_TRUE(shim.take_reset(10));
  EXPECT_FALSE(shim.take_reset(20));   // edge-triggered
  EXPECT_FALSE(shim.take_reset(250));  // second window is not reset-flagged
}

TEST(ChaosShim, ReorderHoldsOneFrameAndReleasesAfterSuccessor) {
  fault::TransportFaultRates rates;
  rates.reorder = 1.0;
  ChaosShim shim(rates, 42);
  TransportStats stats;
  EXPECT_TRUE(shim.on_send("first", 0, &stats, 1).empty());
  const auto out = shim.on_send("second", 0, &stats, 2);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].payload, "second");
  EXPECT_EQ(out[1].payload, "first");
  // Each emission keeps the tag of its own frame, not the releaser's.
  EXPECT_EQ(out[0].tag, 2u);
  EXPECT_EQ(out[1].tag, 1u);
  EXPECT_GT(stats.chaos_reordered, 0u);
}

TEST(ChaosShim, ClearHeldForgetsTheHostage) {
  fault::TransportFaultRates rates;
  rates.reorder = 1.0;
  ChaosShim shim(rates, 42);
  TransportStats stats;
  EXPECT_TRUE(shim.on_send("hostage", 0, &stats, 1).empty());
  shim.clear_held();
  const auto out = shim.on_send("next", 0, &stats, 1);
  // With the hold cleared, nothing rides along — but "next" may itself be
  // held again (rate 1.0); both outcomes exclude the hostage.
  for (const ChaosEmission& em : out) EXPECT_NE(em.payload, "hostage");
}

// --- InterfaceFabric and SplitTransport behind the Transport interface -----

TEST(LoopbackTransport, FabricImplementsSendDrainReceive) {
  oran::InterfaceFabric fabric("t1");
  Transport& t = fabric;
  EXPECT_TRUE(t.connected());
  EXPECT_EQ(t.send("a"), SendResult::kQueued);
  EXPECT_EQ(t.send("b"), SendResult::kQueued);
  const auto all = t.drain();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0], "a");
  EXPECT_EQ(all[1], "b");
  EXPECT_FALSE(t.receive(0).has_value());
  t.send("c");
  const auto got = t.receive(1000);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "c");
}

TEST(LoopbackTransport, PartitionDropsFramesUntilHealed) {
  oran::InterfaceFabric fabric("t1");
  fabric.set_partitioned(true);
  EXPECT_FALSE(fabric.connected());
  // Like TCP, a partitioned sender still gets its frame accepted — the
  // loss only shows through silence.
  EXPECT_EQ(fabric.send("gone"), SendResult::kQueued);
  EXPECT_TRUE(fabric.drain().empty());
  EXPECT_EQ(fabric.partition_drops(), 1u);

  fabric.set_partitioned(false);
  EXPECT_TRUE(fabric.connected());
  fabric.send("through");
  const auto got = fabric.receive(0);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "through");
}

TEST(LoopbackTransport, SplitTransportPairsTwoSimplexFabrics) {
  oran::InterfaceFabric north("n");  // A -> B
  oran::InterfaceFabric south("s");  // B -> A
  SplitTransport a(&north, &south, "a-side");
  SplitTransport b(&south, &north, "b-side");

  a.send("to b");
  const auto at_b = b.receive(0);
  ASSERT_TRUE(at_b.has_value());
  EXPECT_EQ(*at_b, "to b");

  b.send("to a");
  const auto at_a = a.receive(0);
  ASSERT_TRUE(at_a.has_value());
  EXPECT_EQ(*at_a, "to a");

  south.set_partitioned(true);
  EXPECT_FALSE(a.connected());
  EXPECT_FALSE(b.connected());
  EXPECT_EQ(a.name(), "a-side");
}

}  // namespace
}  // namespace edgebol::net
