// Flood generator for the O-RAN message plane.
//
// Dials a MuxEndpoint server (any ric_node listening port) and pushes
// B-byte filler frames on the o1 stream id as fast as the stream's
// backpressure policy allows, while draining and discarding anything the
// peer sends back on it. Against the near-RT RIC's nn port the flood lands
// on its o1 stream, which that node never drains; on any other port it is
// counted there as unknown-stream drops. Used to measure
// indication-to-policy latency under load and to exercise the bounded-queue
// policies end to end:
//
//   load_ric --port P [--frames N] [--seconds S] [--bytes B]
//            [--policy block|shed|reject]
//
// Stops at whichever of --frames / --seconds hits first. Prints a JSON
// summary to stdout (throughput plus what backpressure did to the flood)
// and a human line to stderr.
//
// The second mode measures the multiplexed ingest path itself (no peer
// needed — it hosts both ends):
//
//   load_ric --ingest [--seconds S] [--bytes B] [--streams N] [--out PATH]
//
// Phase "wire" floods a MuxEndpoint pair (N kShedOldest streams, two event
// loops) and reports the receive side's syscall-vs-decode wall-time split
// (readv_wall_ms vs decode_wall_ms) from MuxEndpointStats. Phase "decode"
// replays a pre-encoded frame buffer through a bare MuxDecoder in 64 KiB
// chunks — the pure stream-ID framing decode rate, no sockets — and its
// frames/s is the `frames_per_sec` floor scripts/check.sh gates. Writes
// the combined report (with a "metrics" block for perf_gate.py) to --out
// and stdout.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "plane_harness.hpp"

namespace {

using namespace edgebol;

struct Options {
  std::uint16_t port = 0;
  std::uint64_t frames = 0;   // 0 = unbounded (use --seconds)
  double seconds = 5.0;
  std::size_t bytes = 256;
  net::BackpressurePolicy policy = net::BackpressurePolicy::kBlock;
  bool ingest = false;
  std::size_t streams = 64;
  std::string out = "BENCH_ingest.json";
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --port P [--frames N] [--seconds S] [--bytes B]\n"
               "          [--policy block|shed|reject]\n"
               "       %s --ingest [--seconds S] [--bytes B] [--streams N]\n"
               "          [--out PATH]\n",
               argv0, argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], flag);
        usage(argv[0]);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--port") == 0) {
      o.port = static_cast<std::uint16_t>(std::atoi(next("--port")));
    } else if (std::strcmp(argv[i], "--frames") == 0) {
      o.frames = static_cast<std::uint64_t>(std::atoll(next("--frames")));
    } else if (std::strcmp(argv[i], "--seconds") == 0) {
      o.seconds = std::atof(next("--seconds"));
    } else if (std::strcmp(argv[i], "--bytes") == 0) {
      o.bytes = static_cast<std::size_t>(std::atoll(next("--bytes")));
    } else if (std::strcmp(argv[i], "--policy") == 0) {
      const std::string p = next("--policy");
      if (p == "block") o.policy = net::BackpressurePolicy::kBlock;
      else if (p == "shed") o.policy = net::BackpressurePolicy::kShedOldest;
      else if (p == "reject") o.policy = net::BackpressurePolicy::kReject;
      else usage(argv[0]);
    } else if (std::strcmp(argv[i], "--ingest") == 0) {
      o.ingest = true;
    } else if (std::strcmp(argv[i], "--streams") == 0) {
      o.streams = static_cast<std::size_t>(std::atoll(next("--streams")));
      if (o.streams == 0) usage(argv[0]);
    } else if (std::strcmp(argv[i], "--out") == 0) {
      o.out = next("--out");
    } else {
      std::fprintf(stderr, "%s: unknown flag %s\n", argv[0], argv[i]);
      usage(argv[0]);
    }
  }
  if (!o.ingest && o.port == 0) usage(argv[0]);
  return o;
}

// --- ingest mode -------------------------------------------------------

int run_ingest(const Options& o) {
  const std::string payload(o.bytes, 'x');

  // Phase "wire": flood a real MuxEndpoint pair across two event loops and
  // time where the receive side spends its wall clock.
  std::uint64_t wire_rx_frames = 0;
  std::uint64_t wire_rx_bytes = 0;
  std::uint64_t wire_offered = 0;
  double wire_elapsed_ms = 0.0;
  net::MuxEndpointStats rx_stats;
  {
    net::EventLoop sloop;
    net::EventLoop cloop;
    net::ReadySignal sready;
    net::MuxEndpointConfig scfg;
    scfg.name = "ingest/rx";
    scfg.ready = &sready;
    auto server = net::MuxEndpoint::listen(&sloop, 0, scfg);
    net::MuxEndpointConfig ccfg;
    ccfg.name = "ingest/tx";
    auto client = net::MuxEndpoint::connect(&cloop, "127.0.0.1",
                                            server->local_port(), ccfg);
    std::vector<net::MuxTransport*> tx;
    tx.reserve(o.streams);
    for (std::size_t i = 0; i < o.streams; ++i) {
      net::MuxStreamConfig st;
      st.name = "s";
      st.name += std::to_string(i + 1);
      st.policy = net::BackpressurePolicy::kShedOldest;
      server->open_stream(i + 1, st);
      tx.push_back(client->open_stream(i + 1, st));
    }
    const double t_up = plane::now_ms() + 10000.0;
    while (!(server->established() && client->established())) {
      if (plane::now_ms() > t_up) {
        std::fprintf(stderr, "load_ric: ingest pair never established\n");
        return 1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }

    std::atomic<bool> flood_done{false};
    std::thread flood([&] {
      const double deadline = plane::now_ms() + o.seconds * 1000.0;
      std::size_t i = 0;
      std::uint64_t sent = 0;
      while (plane::now_ms() < deadline &&
             (o.frames == 0 || sent < o.frames)) {
        (void)tx[i]->send(payload);
        ++sent;
        i = (i + 1 == o.streams) ? 0 : i + 1;
      }
      wire_offered = sent;
      flood_done.store(true);
    });

    std::vector<net::StreamFrame> frames;
    const double t0 = plane::now_ms();
    double last_progress = t0;
    for (;;) {
      frames.clear();
      const std::size_t got = server->drain_all(&frames);
      const double now = plane::now_ms();
      if (got > 0) {
        wire_rx_frames += got;
        for (const net::StreamFrame& f : frames)
          wire_rx_bytes += f.payload.size();
        last_progress = now;
      } else {
        // Flood over and the pipe quiet for a grace period: done.
        if (flood_done.load() && now - last_progress > 300.0) break;
        (void)sready.wait(20);
      }
    }
    wire_elapsed_ms = plane::now_ms() - t0;
    flood.join();
    rx_stats = server->stats();
  }

  // Phase "decode": the bare decoder against a pre-encoded buffer, fed in
  // 64 KiB chunks like a readv batch — no sockets, no threads.
  std::string buf;
  for (std::size_t i = 0; i < 4096; ++i)
    net::append_mux_frame(&buf, (i % o.streams) + 1, payload);
  net::MuxDecoder dec;
  std::uint64_t dec_frames = 0;
  std::uint64_t dec_bytes = 0;
  const double dec_budget_ms = 1000.0;
  const double dt0 = plane::now_ms();
  while (plane::now_ms() - dt0 < dec_budget_ms) {
    std::size_t off = 0;
    while (off < buf.size()) {
      const std::size_t chunk = std::min<std::size_t>(64 * 1024,
                                                      buf.size() - off);
      off += dec.feed(buf.data() + off, chunk);
      net::FrameView v;
      while (dec.next(&v)) ++dec_frames;
    }
    dec_bytes += buf.size();
  }
  const double dec_elapsed_ms = plane::now_ms() - dt0;

  const auto rate = [](std::uint64_t n, double ms) {
    return ms > 0.0 ? static_cast<double>(n) / (ms / 1000.0) : 0.0;
  };
  const double wire_fps = rate(wire_rx_frames, wire_elapsed_ms);
  const double wire_mbps = rate(wire_rx_bytes, wire_elapsed_ms) / 1e6;
  const double dec_fps = rate(dec_frames, dec_elapsed_ms);
  const double dec_mbps = rate(dec_bytes, dec_elapsed_ms) / 1e6;
  const double frames_per_readv =
      rx_stats.readv_calls > 0
          ? static_cast<double>(wire_rx_frames) /
                static_cast<double>(rx_stats.readv_calls)
          : 0.0;

  char json[2048];
  std::snprintf(
      json, sizeof(json),
      "{\n"
      "  \"wire\": {\"offered\": %llu, \"frames\": %llu, \"bytes\": %llu, "
      "\"elapsed_ms\": %.1f, \"frames_per_s\": %.0f, \"mb_per_s\": %.2f, "
      "\"readv_calls\": %llu, \"frames_per_readv\": %.1f, "
      "\"readv_wall_ms\": %.2f, \"decode_wall_ms\": %.2f, "
      "\"recv_shed\": %llu, \"scratch_copies\": %llu},\n"
      "  \"decode\": {\"frames\": %llu, \"elapsed_ms\": %.1f, "
      "\"frames_per_s\": %.0f, \"mb_per_s\": %.2f},\n"
      "  \"metrics\": {\"frames_per_sec\": %.0f, "
      "\"wire_frames_per_sec\": %.0f}\n"
      "}\n",
      static_cast<unsigned long long>(wire_offered),
      static_cast<unsigned long long>(wire_rx_frames),
      static_cast<unsigned long long>(wire_rx_bytes), wire_elapsed_ms,
      wire_fps, wire_mbps,
      static_cast<unsigned long long>(rx_stats.readv_calls), frames_per_readv,
      rx_stats.readv_wall_ms, rx_stats.decode_wall_ms,
      static_cast<unsigned long long>(rx_stats.link.recv_shed),
      static_cast<unsigned long long>(rx_stats.scratch_copies),
      static_cast<unsigned long long>(dec_frames), dec_elapsed_ms, dec_fps,
      dec_mbps, dec_fps, wire_fps);
  std::fputs(json, stdout);
  if (!o.out.empty()) {
    std::ofstream os(o.out);
    os << json;
  }
  std::fprintf(stderr,
               "load_ric[ingest]: wire %.0f frames/s (%.2f MB/s; readv %.0f "
               "ms vs decode %.0f ms), bare decode %.0f frames/s\n",
               wire_fps, wire_mbps, rx_stats.readv_wall_ms,
               rx_stats.decode_wall_ms, dec_fps);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  if (o.ingest) return run_ingest(o);

  net::EventLoop loop;
  auto ep = net::MuxEndpoint::connect(&loop, "127.0.0.1", o.port,
                                      plane::mux_link_config("load", nullptr));
  net::MuxTransport* link = ep->open_stream(
      plane::MuxPlane::kO1, plane::mux_stream_config("load", o.policy));

  // Wait for the link before timing, so a slow peer start doesn't count.
  const double t_up = plane::now_ms() + 10000.0;
  while (!ep->established()) {
    if (plane::now_ms() > t_up) {
      std::fprintf(stderr, "load_ric: could not connect to port %u\n",
                   o.port);
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  const std::string payload(o.bytes, 'x');

  const double t0 = plane::now_ms();
  const double deadline = t0 + o.seconds * 1000.0;
  std::uint64_t sent = 0;
  std::uint64_t queued = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected = 0;
  while ((o.frames == 0 || sent < o.frames) && plane::now_ms() < deadline) {
    switch (link->send(payload)) {
      case net::SendResult::kQueued: ++queued; break;
      case net::SendResult::kShed: ++shed; break;
      case net::SendResult::kRejected: ++rejected; break;
      case net::SendResult::kClosed:
        std::fprintf(stderr, "load_ric: link closed mid-flood\n");
        return 1;
    }
    ++sent;
    (void)link->drain();  // discard whatever the peer answers
    if (o.policy == net::BackpressurePolicy::kReject && rejected > 0 &&
        sent % 64 == 0) {
      // Under kReject a tight loop would just spin on a full queue; yield
      // so the event loop gets the core on single-CPU machines.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  const double elapsed_ms = plane::now_ms() - t0;

  // Let the queue flush before reading final wire counters.
  const double t_flush = plane::now_ms() + 2000.0;
  while (plane::now_ms() < t_flush) {
    const net::TransportStats st = link->stats();
    if (st.frames_sent + st.send_shed >= queued + shed) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const net::TransportStats st = link->stats();

  const double fps = elapsed_ms > 0.0 ? sent / (elapsed_ms / 1000.0) : 0.0;
  const double mbps = elapsed_ms > 0.0
                          ? (static_cast<double>(st.bytes_sent) / 1e6) /
                                (elapsed_ms / 1000.0)
                          : 0.0;
  std::printf(
      "{\"offered\": %llu, \"queued\": %llu, \"shed_on_send\": %llu, "
      "\"rejected\": %llu, \"wire_frames\": %llu, \"wire_bytes\": %llu, "
      "\"queue_shed\": %llu, \"block_waits\": %llu, \"elapsed_ms\": %.1f, "
      "\"frames_per_s\": %.0f, \"mb_per_s\": %.2f}\n",
      static_cast<unsigned long long>(sent),
      static_cast<unsigned long long>(queued),
      static_cast<unsigned long long>(shed),
      static_cast<unsigned long long>(rejected),
      static_cast<unsigned long long>(st.frames_sent),
      static_cast<unsigned long long>(st.bytes_sent),
      static_cast<unsigned long long>(st.send_shed),
      static_cast<unsigned long long>(st.send_block_waits), elapsed_ms, fps,
      mbps);
  std::fprintf(stderr, "load_ric: %llu frames in %.1f ms (%.0f/s, %.2f MB/s)\n",
               static_cast<unsigned long long>(sent), elapsed_ms, fps, mbps);
  return 0;
}
