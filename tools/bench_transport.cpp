// Latency and recovery harness for the asynchronous message plane.
//
// Hosts the full three-node control plane (plane_harness.hpp) over the real
// message plane in one process and measures what the paper's operator would
// care about before deploying it:
//
//   clean      indication-to-policy latency (EnvNode's clock: KPI sent ->
//              next radio control applied, i.e. one full learner loop) with
//              nothing else on the wire;
//   loaded     the same while a flood client saturates a sink connection on
//              the same event loop (the load_ric scenario, in-process);
//   recovery   a fresh plane whose e2 link gets a seeded partition window
//              on both directions; reports how long after the partition
//              lifts the control loop completes its first fully clean
//              period (KPI delivered, finite BS power), plus constraint
//              violations from then on (core::violates on the measurement:
//              the remote testbed has no noise-free outcome).
//   fleet      the tentpole scenario: a 1000-cell FleetSim driving a
//              FleetEngine through the binary fleet plane — every cell a
//              MuxTransport stream, the whole fleet on 8 TCP connections.
//              Reports the per-decision indication-to-policy latency
//              distribution and the transport-vs-engine wall split.
//
// Emits machine-readable JSON (default BENCH_transport.json) with a
// `metrics` block the perf gate reads:
//   { ..., "metrics": {"p50_clean_ms", "p99_clean_ms", "p50_loaded_ms",
//                      "p99_loaded_ms", "recovery_ms", "p99_mux_ms",
//                      "mux_cells_shortfall", "mux_connections"} }
//
// Usage: bench_transport [--smoke] [--seed S] [--out PATH]
//   --smoke    fewer periods + a short partition window (CI).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "plane_harness.hpp"

namespace {

using namespace edgebol;

struct Config {
  bool smoke = false;
  std::uint64_t seed = 1;
  std::string out = "BENCH_transport.json";
  int periods_clean = 120;
  int periods_loaded = 120;
  std::int64_t partition_start_ms = 1000;
  std::int64_t partition_ms = 5000;
  double recovery_cap_ms = 30000.0;
  int post_recovery_periods = 20;
  std::size_t fleet_cells = 1000;
  std::size_t fleet_connections = 8;
  std::int64_t fleet_periods = 3;  // per cell
};

struct LatencySummary {
  std::size_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

LatencySummary summarize(std::vector<double> samples) {
  LatencySummary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  auto pct = [&](double q) {
    const std::size_t idx = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples.size() - 1)));
    return samples[std::min(idx, samples.size() - 1)];
  };
  s.p50 = pct(0.50);
  s.p99 = pct(0.99);
  s.max = samples.back();
  return s;
}

struct LoadSummary {
  std::uint64_t offered = 0;
  std::uint64_t wire_frames = 0;
  std::uint64_t queue_shed = 0;
  std::uint64_t recv_pauses = 0;
};

struct RecoverySummary {
  bool recovered = false;
  double recovery_ms = 0.0;
  int degraded_periods = 0;   // periods with a lost KPI (NaN BS power)
  int violations_after = 0;   // measured violations once recovered
  std::uint64_t e2_reconnects = 0;
  std::uint64_t e2_peer_timeouts = 0;
  std::uint64_t partition_drops = 0;
};

// --- phases 1+2: latency, clean then under flood ---------------------------

/// Runs `periods` periods of `agent` and returns the env node's
/// indication-to-policy samples recorded so far. The env thread is idle
/// between calls (lock-step protocol), so reading its sample vector at the
/// phase boundary is race-free.
std::size_t run_phase(core::EdgeBol& agent, plane::PlaneNodes& nodes,
                      int periods) {
  core::run_periods(nodes.nonrt, agent, periods, [](const auto&) {});
  return nodes.envnode.indication_to_policy_ms().size();
}

bool run_latency_phases(const Config& cfg, LatencySummary* clean,
                        LatencySummary* loaded, LoadSummary* load) {
  plane::MuxPlane net_plane;
  plane::PlaneNodes nodes(net_plane,
                          env::make_static_testbed(35.0, [&] {
                            env::TestbedConfig t;
                            t.seed = cfg.seed;
                            return t;
                          }()));
  if (!nodes.nonrt.handshake()) {
    std::fprintf(stderr, "bench_transport: handshake failed\n");
    return false;
  }
  core::EdgeBol agent(env::ControlGrid{}, plane::canonical_agent_config());

  const std::size_t n_clean = run_phase(agent, nodes, cfg.periods_clean);
  {
    const auto& all = nodes.envnode.indication_to_policy_ms();
    *clean = summarize({all.begin(), all.begin() + n_clean});
  }

  // Flood a dedicated sink connection on the same event loop: every byte
  // competes with the control plane for the loop thread and (on 1-core CI)
  // the CPU. The sink's stream is lossless, so its receive bound pauses the
  // connection and TCP flow control pushes back on the flooder, whose
  // shed-oldest stream then drops its own backlog.
  auto sink_ep = net::MuxEndpoint::listen(
      &net_plane.loop, 0, plane::mux_link_config("load/sink", nullptr));
  net::MuxTransport* sink = sink_ep->open_stream(
      1,
      plane::mux_stream_config("load/sink", net::BackpressurePolicy::kBlock));
  auto flood_ep = net::MuxEndpoint::connect(
      &net_plane.loop, "127.0.0.1", sink_ep->local_port(),
      plane::mux_link_config("load/flood", nullptr));
  net::MuxTransport* flood_client = flood_ep->open_stream(
      1, plane::mux_stream_config("load/flood",
                                  net::BackpressurePolicy::kShedOldest));
  std::atomic<bool> flood_stop{false};
  std::uint64_t offered = 0;
  std::thread flood([&] {
    // The frame size BENCH_transport's loaded phase has always offered, so
    // its p99_loaded_ms stays comparable across commits.
    const std::string payload(522, 'x');
    while (!flood_stop.load()) {
      (void)flood_client->send(payload);
      ++offered;
      (void)sink->drain();  // keep the sink's receive window open
    }
  });

  run_phase(agent, nodes, cfg.periods_loaded);
  flood_stop.store(true);
  flood.join();
  {
    const auto& all = nodes.envnode.indication_to_policy_ms();
    *loaded = summarize({all.begin() + n_clean, all.end()});
  }
  const net::TransportStats fs = flood_client->stats();
  const net::TransportStats ss = sink->stats();
  load->offered = offered;
  load->wire_frames = fs.frames_sent;
  load->queue_shed = fs.send_shed;
  load->recv_pauses = ss.recv_pauses;
  return true;
}

// --- phase 3: partition recovery -------------------------------------------

bool run_recovery_phase(const Config& cfg, RecoverySummary* out) {
  plane::MuxPlaneOptions opt;
  const fault::PartitionWindow window{cfg.partition_start_ms,
                                      cfg.partition_ms, false};
  opt.e2_client.rates.partitions.push_back(window);
  opt.e2_client.seed = cfg.seed * 2654435761u + 1;
  opt.e2_server.rates.partitions.push_back(window);
  opt.e2_server.seed = cfg.seed * 2654435761u + 2;

  // Build the expensive pieces (testbed, GP agent) before the plane so the
  // decision loop starts stepping right after establishment — the partition
  // clock runs from the e2 link's first establishment, and the warm-up
  // periods before the window opens are part of the scenario.
  env::TestbedConfig tcfg;
  tcfg.seed = cfg.seed;
  env::Testbed tb = env::make_static_testbed(35.0, tcfg);
  core::EdgeBol agent(env::ControlGrid{}, plane::canonical_agent_config());

  plane::MuxPlane net_plane(opt);
  const double t_est = net_plane.wait_e2_established();
  if (t_est < 0.0) {
    std::fprintf(stderr, "bench_transport: e2 never established\n");
    return false;
  }
  // Chaos windows are measured from first establishment (the shim arms
  // once), so the wall-clock end of the partition is known up front.
  const double window_end_ms =
      t_est + static_cast<double>(cfg.partition_start_ms + cfg.partition_ms);

  plane::PlaneNodes nodes(net_plane, std::move(tb));
  if (!nodes.nonrt.handshake()) {
    std::fprintf(stderr, "bench_transport: handshake failed (recovery)\n");
    return false;
  }

  // One period at a time, so each period gets a wall-clock stamp and the
  // loop can follow a time window.
  double recovered_at = -1.0;
  int post_periods = 0;
  while (plane::now_ms() < window_end_ms + cfg.recovery_cap_ms) {
    env::Measurement m;
    core::run_periods(nodes.nonrt, agent, 1,
                      [&](const auto& r) { m = r.measurement; });
    const double t = plane::now_ms();

    const bool kpi_ok = std::isfinite(m.bs_power_w);
    if (!kpi_ok) ++out->degraded_periods;
    if (recovered_at < 0.0 && t >= window_end_ms && kpi_ok &&
        nodes.nonrt.last_delivery().delivered) {
      recovered_at = t;
      out->recovered = true;
      out->recovery_ms = recovered_at - window_end_ms;
    }
    if (recovered_at >= 0.0) {
      if (core::violates(agent.constraints(), m)) ++out->violations_after;
      if (++post_periods >= cfg.post_recovery_periods) break;
    }
  }
  // Supervision and chaos counters live at the connection level.
  const net::TransportStats e2s = net_plane.e2ep_c->stats().link;
  out->e2_reconnects = e2s.reconnects;
  out->e2_peer_timeouts = e2s.peer_timeouts;
  out->partition_drops = e2s.chaos_partition_drops +
                         net_plane.e2ep_s->stats().link.chaos_partition_drops;
  return out->recovered;
}

// --- phase 4: the 1000-cell fleet over TCP ----------------------------------

struct FleetSummary {
  std::size_t cells = 0;
  std::size_t connections = 0;
  std::size_t decisions = 0;
  LatencySummary lat;            // per-decision indication -> policy (ms)
  double total_wall_ms = 0.0;
  double engine_wall_ms = 0.0;   // inside serve_batch (update + decide +
                                 // the replies it streams)
  std::size_t cells_shortfall = 0;  // cells that finished < target periods
  std::uint64_t duplicates = 0;
  std::uint64_t stale = 0;
  std::uint64_t decode_rejects = 0;
  std::uint64_t writev_calls = 0;
  std::uint64_t readv_calls = 0;
  double readv_wall_ms = 0.0;
  double decode_wall_ms = 0.0;
};

bool run_fleet_phase(const Config& cfg, FleetSummary* out) {
  const std::size_t n_cells = cfg.fleet_cells;
  out->cells = n_cells;

  // Engine sized like bench_fleet's throughput fleet: 5^4 grid, budget-64
  // cells, up to 8 dispatch threads.
  core::FleetEngineConfig ecfg;
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  ecfg.num_threads = std::min<std::size_t>(8, hw);
  ecfg.cell.weights = {1.0, 8.0};
  ecfg.cell.constraints = {0.4, 0.5};
  ecfg.cell.gp_budget = 64;
  env::GridSpec spec;
  spec.levels_per_dim = 5;
  core::FleetEngine engine(env::ControlGrid{spec}, ecfg);
  for (std::size_t i = 0; i < n_cells; ++i) engine.add_cell();

  env::FleetScenario sc;
  sc.num_cells = n_cells;
  sc.seed = 7;
  sc.tick_s = 0.25;
  env::FleetSim sim(sc);

  // The plane: server and cell bank on separate event loops, so server-side
  // readv batching competes with a real sender rather than itself.
  net::EventLoop sloop;
  net::EventLoop cloop;
  oran::FleetPlaneConfig pcfg;
  pcfg.num_connections = cfg.fleet_connections;
  oran::FleetRicServer server(&sloop, &engine, n_cells, pcfg);
  out->connections = server.num_connections();
  oran::FleetCellBank bank(&cloop, "127.0.0.1", server.ports(), n_cells,
                           pcfg);
  if (!bank.wait_established(15000)) {
    std::fprintf(stderr, "bench_transport: fleet plane never established\n");
    return false;
  }

  std::atomic<bool> stop{false};
  std::thread srv([&] {
    while (!stop.load()) {
      if (server.poll_once() == 0) (void)server.wait_activity(10);
    }
  });

  // Per-cell protocol state (the cell side of the idempotent loop).
  std::vector<std::int64_t> period(n_cells, 0);
  std::vector<std::int64_t> done(n_cells, 0);
  std::vector<bool> has_fb(n_cells, false);
  std::vector<env::Context> prev_ctx(n_cells);
  std::vector<std::uint64_t> prev_idx(n_cells, 0);
  std::vector<env::Measurement> prev_meas(n_cells);
  std::vector<std::ptrdiff_t> slot_of(n_cells, -1);

  std::vector<env::Context> ctx;
  std::vector<env::ControlPolicy> pol;
  std::vector<env::Measurement> meas;
  std::vector<double> t_send;
  std::vector<bool> answered;
  std::vector<std::pair<std::size_t, oran::FleetPolicy>> got;
  std::vector<double> lat;
  lat.reserve(n_cells * static_cast<std::size_t>(cfg.fleet_periods));

  bool ok = true;
  const double t0 = plane::now_ms();
  std::size_t cells_pending = n_cells;  // cells with done < fleet_periods
  while (ok && cells_pending > 0) {
    const std::span<const std::size_t> due = sim.next_due();
    const std::size_t n = due.size();
    ctx.resize(n);
    pol.resize(n);
    meas.resize(n);
    t_send.resize(n);
    answered.assign(n, false);
    sim.due_contexts(ctx);

    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t cell = due[i];
      slot_of[cell] = static_cast<std::ptrdiff_t>(i);
      oran::FleetIndication ind;
      ind.period = period[cell];
      ind.ctx = ctx[i];
      ind.has_feedback = has_fb[cell];
      ind.policy_index = prev_idx[cell];
      ind.prev_ctx = prev_ctx[cell];
      ind.meas = prev_meas[cell];
      t_send[i] = plane::now_ms();
      if (bank.send_indication(cell, ind) == net::SendResult::kClosed) {
        std::fprintf(stderr, "bench_transport: fleet link closed\n");
        ok = false;
        break;
      }
    }

    std::size_t have = 0;
    const double deadline = plane::now_ms() + 30000.0;
    while (ok && have < n) {
      got.clear();
      if (bank.drain_policies(&got) == 0) {
        if (plane::now_ms() > deadline) {
          std::fprintf(stderr,
                       "bench_transport: fleet batch timed out (%zu/%zu "
                       "replies)\n",
                       have, n);
          ok = false;
          break;
        }
        (void)bank.wait_activity(20);
        continue;
      }
      const double t_now = plane::now_ms();
      for (const auto& [cell, fp] : got) {
        const std::ptrdiff_t slot = slot_of[cell];
        // Replies for an earlier period (redelivery) or an unexpected cell
        // are dropped; the period key makes that safe.
        if (slot < 0 || fp.period != period[cell]) continue;
        const std::size_t i = static_cast<std::size_t>(slot);
        if (answered[i]) continue;
        answered[i] = true;
        ++have;
        pol[i] = fp.policy;
        prev_idx[cell] = fp.policy_index;
        lat.push_back(t_now - t_send[i]);
      }
    }
    if (!ok) break;

    // Lock-step with the serving thread: a reply leaves once its own cell's
    // update and select are done (the rest of its batch may still be
    // running), and the step touches only the simulator, never the engine,
    // so the serial step keeps each cell's trajectory deterministic.
    sim.step_due(pol, meas, nullptr);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t cell = due[i];
      prev_ctx[cell] = ctx[i];
      prev_meas[cell] = meas[i];
      has_fb[cell] = true;
      ++period[cell];
      slot_of[cell] = -1;
      if (++done[cell] == cfg.fleet_periods) --cells_pending;
    }
  }
  out->total_wall_ms = plane::now_ms() - t0;

  stop.store(true);
  srv.join();

  out->decisions = server.decisions();
  out->duplicates = server.duplicate_indications();
  out->stale = server.stale_indications();
  out->decode_rejects = server.decode_rejects() + bank.decode_rejects();
  out->engine_wall_ms = server.engine_wall_ms();
  for (std::size_t k = 0; k < server.num_connections(); ++k) {
    const net::MuxEndpointStats ls = server.endpoint(k).stats();
    out->writev_calls += ls.writev_calls;
    out->readv_calls += ls.readv_calls;
    out->readv_wall_ms += ls.readv_wall_ms;
    out->decode_wall_ms += ls.decode_wall_ms;
  }
  for (std::size_t c = 0; c < n_cells; ++c)
    if (done[c] < cfg.fleet_periods) ++out->cells_shortfall;
  out->lat = summarize(std::move(lat));
  return ok;
}

// --- output ----------------------------------------------------------------

void write_json(const Config& cfg, const LatencySummary& clean,
                const LatencySummary& loaded, const LoadSummary& load,
                const RecoverySummary& rec, const FleetSummary& fleet) {
  std::ofstream os(cfg.out);
  os.precision(6);
  auto lat = [&](const char* name, const LatencySummary& s) {
    os << "  \"" << name << "\": {\"n\": " << s.n << ", \"p50_ms\": " << s.p50
       << ", \"p99_ms\": " << s.p99 << ", \"max_ms\": " << s.max << "},\n";
  };
  os << "{\n"
     << "  \"smoke\": " << (cfg.smoke ? "true" : "false") << ",\n"
     << "  \"seed\": " << cfg.seed << ",\n"
     << "  \"periods_clean\": " << cfg.periods_clean << ",\n"
     << "  \"periods_loaded\": " << cfg.periods_loaded << ",\n"
     << "  \"partition_ms\": " << cfg.partition_ms << ",\n";
  lat("latency_clean", clean);
  lat("latency_loaded", loaded);
  os << "  \"load\": {\"offered\": " << load.offered
     << ", \"wire_frames\": " << load.wire_frames
     << ", \"queue_shed\": " << load.queue_shed
     << ", \"recv_pauses\": " << load.recv_pauses << "},\n"
     << "  \"recovery\": {\"recovered\": " << (rec.recovered ? "true" : "false")
     << ", \"recovery_ms\": " << rec.recovery_ms
     << ", \"degraded_periods\": " << rec.degraded_periods
     << ", \"violations_after\": " << rec.violations_after
     << ", \"e2_reconnects\": " << rec.e2_reconnects
     << ", \"e2_peer_timeouts\": " << rec.e2_peer_timeouts
     << ", \"partition_drops\": " << rec.partition_drops << "},\n"
     << "  \"fleet\": {\"cells\": " << fleet.cells
     << ", \"connections\": " << fleet.connections
     << ", \"decisions\": " << fleet.decisions
     << ", \"p50_ms\": " << fleet.lat.p50 << ", \"p99_ms\": " << fleet.lat.p99
     << ", \"max_ms\": " << fleet.lat.max
     << ", \"total_wall_ms\": " << fleet.total_wall_ms
     << ", \"engine_wall_ms\": " << fleet.engine_wall_ms
     << ", \"readv_wall_ms\": " << fleet.readv_wall_ms
     << ", \"decode_wall_ms\": " << fleet.decode_wall_ms
     << ", \"writev_calls\": " << fleet.writev_calls
     << ", \"readv_calls\": " << fleet.readv_calls
     << ", \"duplicates\": " << fleet.duplicates
     << ", \"stale\": " << fleet.stale
     << ", \"decode_rejects\": " << fleet.decode_rejects
     << ", \"cells_shortfall\": " << fleet.cells_shortfall << "},\n"
     << "  \"metrics\": {\"p50_clean_ms\": " << clean.p50
     << ", \"p99_clean_ms\": " << clean.p99
     << ", \"p50_loaded_ms\": " << loaded.p50
     << ", \"p99_loaded_ms\": " << loaded.p99
     << ", \"recovery_ms\": " << rec.recovery_ms
     << ", \"p99_mux_ms\": " << fleet.lat.p99
     << ", \"mux_cells_shortfall\": " << fleet.cells_shortfall
     << ", \"mux_connections\": " << fleet.connections << "}\n"
     << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      cfg.smoke = true;
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      cfg.seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      cfg.out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--seed S] [--out PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (cfg.smoke) {
    // Small enough for CI on a 1-vCPU box, large enough that p99 is a real
    // tail and the partition spans at least one whole degraded period.
    cfg.periods_clean = 40;
    cfg.periods_loaded = 40;
    cfg.partition_start_ms = 500;
    // Must comfortably exceed one degraded period (e2 ack wait + O1 report
    // wait, ~3.5s), or the in-flight period's timeouts carry the KPI send
    // past the window and the partition never actually costs a sample.
    cfg.partition_ms = 4000;
    cfg.post_recovery_periods = 8;
    // Same 1000 cells and 8 connections as the full run — the point of the
    // phase is the scale — just fewer periods per cell.
    cfg.fleet_periods = 2;
  }

  LatencySummary clean, loaded;
  LoadSummary load;
  if (!run_latency_phases(cfg, &clean, &loaded, &load)) return 1;
  std::fprintf(stderr,
               "latency clean : n=%zu p50=%.2fms p99=%.2fms max=%.2fms\n",
               clean.n, clean.p50, clean.p99, clean.max);
  std::fprintf(stderr,
               "latency loaded: n=%zu p50=%.2fms p99=%.2fms max=%.2fms "
               "(flood offered %llu frames, %llu on wire)\n",
               loaded.n, loaded.p50, loaded.p99, loaded.max,
               static_cast<unsigned long long>(load.offered),
               static_cast<unsigned long long>(load.wire_frames));

  RecoverySummary rec;
  FleetSummary fleet;
  if (!run_recovery_phase(cfg, &rec)) {
    std::fprintf(stderr,
                 "bench_transport: control loop never recovered within "
                 "%.0fms of the partition lifting\n",
                 cfg.recovery_cap_ms);
    write_json(cfg, clean, loaded, load, rec, fleet);
    return 1;
  }
  std::fprintf(stderr,
               "recovery: %.0fms after a %lldms e2 partition (%d degraded "
               "periods, %d measured violations after, %llu reconnect "
               "attempts)\n",
               rec.recovery_ms, static_cast<long long>(cfg.partition_ms),
               rec.degraded_periods, rec.violations_after,
               static_cast<unsigned long long>(rec.e2_reconnects));

  if (!run_fleet_phase(cfg, &fleet)) {
    write_json(cfg, clean, loaded, load, rec, fleet);
    return 1;
  }
  std::fprintf(stderr,
               "fleet: %zu cells on %zu connections, %zu decisions; "
               "p50=%.2fms p99=%.2fms max=%.2fms (engine %.0fms of %.0fms "
               "wall; %llu writev, %llu readv)\n",
               fleet.cells, fleet.connections, fleet.decisions, fleet.lat.p50,
               fleet.lat.p99, fleet.lat.max, fleet.engine_wall_ms,
               fleet.total_wall_ms,
               static_cast<unsigned long long>(fleet.writev_calls),
               static_cast<unsigned long long>(fleet.readv_calls));

  write_json(cfg, clean, loaded, load, rec, fleet);
  std::fprintf(stderr, "wrote %s\n", cfg.out.c_str());
  return 0;
}
